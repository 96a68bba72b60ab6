#!/usr/bin/env python3
"""Schema-validates the BENCH_*.json files the benches and tools emit.

Every CI artifact consumer (trend dashboards, the gate scripts in this
directory) assumes three invariants that used to go unchecked:

  * each file identifies itself with a known "bench" kind and carries
    that kind's required keys;
  * every counter field is a non-negative integer (a negative or
    non-numeric counter means a tally bug, not a slow run);
  * every histogram summary is internally consistent: count >= 0 and,
    when non-empty, min <= p50 <= p90 [<= p99] <= max with the mean
    inside [min, max].

Validates each FILE independently, prints one OK line per valid file,
and exits 1 after listing every problem found. Unreadable or
non-JSON input stops immediately with a one-line error.

Usage: check_bench_json.py FILE [FILE ...]
"""

import json
import os
import re
import sys

# The batch counters' one definition: the CAMS_BATCH_COUNTERS rows.
BATCH_HEADER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "src", "pipeline", "batch.hh")


def batch_counter_names():
    """The JSON names of the CAMS_BATCH_COUNTERS rows, X(field, "name",
    value), read from the macro's continued lines in batch.hh."""
    try:
        with open(BATCH_HEADER) as handle:
            lines = handle.read().splitlines()
    except OSError as err:
        sys.exit(f"error: cannot read '{BATCH_HEADER}': {err.strerror}")
    table = []
    for line in lines:
        if table or line.startswith("#define CAMS_BATCH_COUNTERS("):
            table.append(line)
            if not line.rstrip().endswith("\\"):
                break
    names = re.findall(r'X\(\s*\w+\s*,\s*"(\w+)"', "\n".join(table))
    if not names:
        sys.exit(f"error: no CAMS_BATCH_COUNTERS rows in '{BATCH_HEADER}'")
    return set(names)


# Keys whose values must be non-negative integers wherever they appear.
COUNTER_KEYS = batch_counter_names() | {
    "loops", "jobs", "succeeded", "failed", "degraded",
    "captured_exceptions", "threads",
    "iters", "violations", "degraded_exhaustive",
    "degraded_single_cluster", "reps",
    "corpus", "connections", "requests", "completed", "shed",
    "timeouts", "cancelled", "errors", "unanswered",
    "protocol_errors", "served_disagreements", "send_failures",
    "count", "checked", "mismatches",
    "retries", "shed_retries", "duplicates_suppressed", "gave_up",
    "reconnects",
    "kills", "restarts",
    "directories", "entries_scanned", "entries_ok", "quarantined",
    "tmp_removed",
    "tightened", "proved", "vacuous", "unsupported", "spot_checks",
    "max_gap", "exact_conflicts",
    "ii_sum",
}

# Per-kind required top-level keys ("bench" selects the row).
REQUIRED = {
    "scheduler_compare": (
        "loops", "machine", "jobs", "serial_wall_ms",
        "parallel_wall_ms", "speedup", "serial", "parallel",
    ),
    "cams_fuzz": ("iters", "seed", "jobs", "violations", "stats"),
    "compile_perf": (
        "loops", "machine", "reps", "counters", "mean_ns_per_loop",
        "p50_ns", "p90_ns", "phase_ns_per_loop",
    ),
    "cams_load": (
        "corpus", "connections", "send_failures", "protocol_errors",
        "served_disagreements", "reconnects", "gave_up", "steady",
    ),
    "cams_chaos": (
        "seed", "kills", "restarts", "load_exit",
        "camsd_final_exit", "scrub", "ok",
    ),
    "cams_scrub": (
        "directories", "entries_scanned", "entries_ok",
        "quarantined", "tmp_removed",
    ),
    "exact_gap": (
        "loops", "violations", "timeout_fraction", "machines",
    ),
    "figures": ("loops", "suite_seed", "series"),
}

# Required keys of a BatchStats object and of a cams_load phase.
BATCH_STATS_KEYS = (
    "jobs", "succeeded", "failed", "wall_ms", "failure_kinds",
)
PHASE_KEYS = (
    "requests", "completed", "shed", "timeouts", "unanswered",
    "retries", "shed_retries", "duplicates_suppressed", "gave_up",
    "loops_per_sec", "latency_ms",
)
SCRUB_KEYS = (
    "entries_scanned", "entries_ok", "quarantined", "tmp_removed",
)

# Required keys of one machine's audit in an exact_gap file.
EXACT_GAP_MACHINE_KEYS = (
    "machine", "jobs", "succeeded", "tightened", "proved", "vacuous",
    "timeouts", "unsupported", "spot_checks", "violations",
    "max_gap", "timeout_fraction", "gap_histogram",
    "violation_details",
)

# Required keys of one series in a figures file, and its counts.
FIGURE_COUNT_KEYS = (
    "loops", "failures", "copies", "ii_sum", "unified_ii_sum",
)
FIGURE_SERIES_KEYS = ("figure", "label", "machine", "x") + FIGURE_COUNT_KEYS

# Required keys of the live-telemetry snapshot cams_load polls from
# the daemon after a run (the renderStatsJson shape).
SERVER_STATS_KEYS = (
    "uptime_seconds", "window_seconds", "queue_depth", "in_flight",
    "workers", "queue_capacity", "draining", "counters",
    "histograms", "tenants",
)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_tally(value):
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def check_histogram(where, hist, problems):
    """A dict with count/p50/p90 is a histogram summary; verify it."""
    for key in ("count", "min", "mean", "max", "p50", "p90"):
        if not is_number(hist.get(key)):
            problems.append(
                f"{where}: histogram field '{key}' missing or "
                f"non-numeric ({hist.get(key)!r})"
            )
            return
    count = hist["count"]
    if not isinstance(count, int) or count < 0:
        problems.append(f"{where}: histogram count {count!r} invalid")
        return
    if count == 0:
        return
    order = [("min", hist["min"]), ("p50", hist["p50"]),
             ("p90", hist["p90"])]
    if is_number(hist.get("p99")):
        order.append(("p99", hist["p99"]))
    order.append(("max", hist["max"]))
    for (lo_name, lo), (hi_name, hi) in zip(order, order[1:]):
        if lo > hi:
            problems.append(
                f"{where}: percentiles not monotone: "
                f"{lo_name}={lo} > {hi_name}={hi}"
            )
    if not hist["min"] <= hist["mean"] <= hist["max"]:
        problems.append(
            f"{where}: mean {hist['mean']} outside "
            f"[{hist['min']}, {hist['max']}]"
        )


def check_server_stats(where, stats, problems):
    """A server_stats snapshot: required gauges plus windowed
    counters where 0 <= last1m <= last5m <= total. Histogram
    summaries inside it are covered by the generic walk()."""
    if not require_keys(where, stats, SERVER_STATS_KEYS, problems):
        return
    counters = stats["counters"]
    if not isinstance(counters, dict):
        problems.append(f"{where}.counters: expected an object")
        return
    for name, counter in counters.items():
        child = f"{where}.counters.{name}"
        if not isinstance(counter, dict):
            problems.append(f"{child}: expected an object")
            continue
        values = {}
        for key in ("total", "last1m", "last5m"):
            value = counter.get(key)
            if not isinstance(value, int) or isinstance(
                    value, bool) or value < 0:
                problems.append(
                    f"{child}.{key}: must be a non-negative "
                    f"integer, got {value!r}"
                )
            else:
                values[key] = value
        if len(values) == 3 and not (
                values["last1m"] <= values["last5m"]
                <= values["total"]):
            problems.append(
                f"{child}: windows not nested: last1m="
                f"{values['last1m']} last5m={values['last5m']} "
                f"total={values['total']}"
            )


def check_figures(data, problems):
    """Each series carries its keys, every count is a tally, x maps
    integer deviations to tallies, and x plus failures covers every
    loop of the series."""
    if "suite_seed" in data and not is_tally(data["suite_seed"]):
        problems.append(
            f"suite_seed: must be a non-negative integer, got "
            f"{data['suite_seed']!r}"
        )
    series = data.get("series")
    if not isinstance(series, list) or not series:
        problems.append("series: expected a non-empty list")
        return
    for i, entry in enumerate(series):
        where = f"series[{i}]"
        if not require_keys(where, entry, FIGURE_SERIES_KEYS, problems):
            continue
        for key in FIGURE_COUNT_KEYS:
            # walk() reports the keys COUNTER_KEYS already names.
            if key not in COUNTER_KEYS and not is_tally(entry[key]):
                problems.append(
                    f"{where}.{key}: count must be a non-negative "
                    f"integer, got {entry[key]!r}"
                )
        valid = is_tally(entry["loops"]) and is_tally(entry["failures"])
        histogram = entry["x"]
        if not isinstance(histogram, dict):
            problems.append(f"{where}.x: expected an object")
            continue
        for deviation, count in histogram.items():
            if not re.fullmatch(r"-?[0-9]+", deviation):
                valid = False
                problems.append(
                    f"{where}.x: deviation {deviation!r} is not an "
                    f"integer"
                )
            if not is_tally(count):
                valid = False
                problems.append(
                    f"{where}.x.{deviation}: count must be a "
                    f"non-negative integer, got {count!r}"
                )
        if valid and sum(histogram.values()) + entry["failures"] \
                != entry["loops"]:
            problems.append(
                f"{where}: x counts plus failures "
                f"({sum(histogram.values())} + {entry['failures']}) "
                f"differ from loops ({entry['loops']})"
            )


def walk(where, node, problems):
    """Recursively applies the counter and histogram invariants."""
    if isinstance(node, dict):
        if all(key in node for key in ("count", "p50", "p90")):
            check_histogram(where, node, problems)
        for key, value in node.items():
            child = f"{where}.{key}" if where else key
            if key in COUNTER_KEYS and not (
                isinstance(value, int)
                and not isinstance(value, bool)
                and value >= 0
            ):
                problems.append(
                    f"{child}: counter must be a non-negative "
                    f"integer, got {value!r}"
                )
            if key == "failure_kinds" and isinstance(value, dict):
                for kind, tally in value.items():
                    if not isinstance(tally, int) or tally < 0:
                        problems.append(
                            f"{child}.{kind}: failure tally must be "
                            f"a non-negative integer, got {tally!r}"
                        )
            walk(child, value, problems)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            walk(f"{where}[{i}]", value, problems)


def require_keys(where, node, keys, problems):
    if not isinstance(node, dict):
        problems.append(
            f"{where}: expected a JSON object, got "
            f"{type(node).__name__}"
        )
        return False
    missing = [key for key in keys if key not in node]
    if missing:
        problems.append(f"{where}: missing keys: {', '.join(missing)}")
    return not missing


def check_file(path):
    """Returns a list of problems (empty = valid)."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as err:
        sys.exit(f"error: cannot read '{path}': {err.strerror}")
    except json.JSONDecodeError as err:
        sys.exit(f"error: '{path}' is not valid JSON: {err}")
    if not isinstance(data, dict):
        sys.exit(
            f"error: '{path}' must be a JSON object, got "
            f"{type(data).__name__}"
        )

    problems = []
    kind = data.get("bench")
    if kind not in REQUIRED:
        problems.append(
            f"bench: unknown kind {kind!r} (expected one of "
            f"{', '.join(sorted(REQUIRED))})"
        )
        walk("", data, problems)
        return kind, problems

    require_keys("(top level)", data, REQUIRED[kind], problems)
    if kind == "scheduler_compare":
        for arm in ("serial", "parallel"):
            if arm in data:
                require_keys(arm, data[arm], BATCH_STATS_KEYS,
                             problems)
    elif kind == "cams_fuzz":
        if "stats" in data:
            require_keys("stats", data["stats"], BATCH_STATS_KEYS,
                         problems)
    elif kind == "cams_load":
        for phase in ("steady", "burst"):
            if phase in data:
                require_keys(phase, data[phase], PHASE_KEYS, problems)
        if "server_stats" in data:
            check_server_stats("server_stats", data["server_stats"],
                               problems)
    elif kind == "compile_perf":
        # Which counters must be present is the compile-perf gate's
        # call (it compares the keys with the baseline's); here each
        # one must be a tally.
        if "counters" in data and require_keys(
                "counters", data["counters"], (), problems):
            for key, value in data["counters"].items():
                if isinstance(value, bool) or not isinstance(value, int) \
                        or value < 0:
                    problems.append(
                        f"counters.{key}: counter must be a "
                        f"non-negative integer, got {value!r}"
                    )
    elif kind == "exact_gap":
        machines = data.get("machines")
        if isinstance(machines, list):
            for i, machine in enumerate(machines):
                require_keys(f"machines[{i}]", machine,
                             EXACT_GAP_MACHINE_KEYS, problems)
    elif kind == "figures":
        check_figures(data, problems)
    elif kind == "cams_chaos":
        if "scrub" in data:
            require_keys("scrub", data["scrub"], SCRUB_KEYS, problems)
        if data.get("ok") is not True:
            problems.append(
                f"ok: chaos run did not pass (ok={data.get('ok')!r}, "
                f"load_exit={data.get('load_exit')!r}, "
                f"camsd_final_exit={data.get('camsd_final_exit')!r})"
            )

    walk("", data, problems)
    return kind, problems


def main():
    if len(sys.argv) < 2:
        sys.exit("usage: check_bench_json.py FILE [FILE ...]")
    bad = 0
    for path in sys.argv[1:]:
        kind, problems = check_file(path)
        for problem in problems:
            print(f"FAIL: {path}: {problem}", file=sys.stderr)
        if problems:
            bad += 1
        else:
            print(f"check_bench_json: OK: {path} ({kind})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
