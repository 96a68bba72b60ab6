#!/usr/bin/env python3
"""Gate the compile-perf benchmark against the checked-in baseline.

Reads a BENCH_compile_perf.json produced by bench/compile_perf and
fails (exit 1) when any of the following hold:

  * its suite shape differs from the baseline's: a different loop
    count, machine or race machine makes the counters incomparable;
  * its "counters" object and the baseline's carry different keys;
  * any deterministic work counter (the summed II plus every batch
    counter: II attempts, assignment retries, evictions, copies,
    LoopContext misses, MRT word scans, exact-arm probes, conflicts
    and propagations, ..., of the heuristic pass and of the race_
    pass; the heap allocations of one heuristic pass, allocs, and of
    the same pass served through a read-only compile cache,
    cache_hit_allocs) exceeds the baseline's.

The counters depend only on the code and the suite, never on the
machine or its load, so there is no tolerance: one extra eviction is
extra work. A counter below the baseline passes with a note; check in
the new file as the baseline to ratchet it. Counters named *_hits are
not bounded: a hit is saved work, and the matching *_misses counter
already catches a lost hit. Wall time per loop is printed for
information and not gated.

Malformed or incomplete input fails with a one-line error, never a
traceback.

Usage:
  tools/check_compile_perf.py BENCH_compile_perf.json \
      [--baseline bench/baselines/compile_perf_baseline.json]
"""

import argparse
import json
import sys

def load_json(path: str, what: str) -> dict:
    """Loads one input file, translating every failure mode into a
    clear one-line error instead of a traceback."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as err:
        sys.exit(f"error: cannot read {what} '{path}': {err.strerror}")
    except json.JSONDecodeError as err:
        sys.exit(f"error: {what} '{path}' is not valid JSON: {err}")
    if not isinstance(data, dict):
        sys.exit(
            f"error: {what} '{path}' must be a JSON object, "
            f"got {type(data).__name__}"
        )
    return data


def require(data: dict, key: str, kinds, path: str, what: str):
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, kinds):
        sys.exit(
            f"error: {what} '{path}' is missing field '{key}' "
            f"(found {value!r}); was it produced by bench/compile_perf?"
        )
    return value


def counters(data: dict, path: str, what: str) -> dict:
    table = require(data, "counters", dict, path, what)
    if not table:
        sys.exit(f"error: {what} '{path}' has no counters to gate")
    for key, value in table.items():
        if isinstance(value, bool) or not isinstance(value, int):
            sys.exit(
                f"error: {what} '{path}' counter '{key}' must be an "
                f"integer (found {value!r})"
            )
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", help="BENCH_compile_perf.json to check")
    parser.add_argument(
        "--baseline",
        default="bench/baselines/compile_perf_baseline.json",
        help="checked-in baseline JSON",
    )
    args = parser.parse_args()

    bench = load_json(args.bench, "bench JSON")
    baseline = load_json(args.baseline, "baseline JSON")

    shape = {
        key: (
            require(bench, key, kind, args.bench, "bench JSON"),
            require(baseline, key, kind, args.baseline, "baseline JSON"),
        )
        for key, kind in (
            ("loops", int), ("machine", str), ("race_machine", str)
        )
    }
    measured = counters(bench, args.bench, "bench JSON")
    expected = counters(baseline, args.baseline, "baseline JSON")

    failures = []
    for key, (got, want) in shape.items():
        if got != want:
            failures.append(
                f"{key} {got!r} differs from the baseline's {want!r}; "
                "run at the baseline's shape"
            )
    if not failures and measured.keys() != expected.keys():
        extra = sorted(measured.keys() - expected.keys())
        missing = sorted(expected.keys() - measured.keys())
        failures.append(
            f"counter keys differ from the baseline's (extra: "
            f"{', '.join(extra) or 'none'}; missing: "
            f"{', '.join(missing) or 'none'}); regenerate the baseline"
        )
    if not failures:
        for key in expected:
            got, want = measured[key], expected[key]
            if key.endswith("_hits"):
                continue
            if got > want:
                failures.append(
                    f"{key} {got} exceeds the baseline's {want}"
                )
            elif got < want:
                print(
                    f"note: {key} {got} is below the baseline's {want}; "
                    "check this file in as the new baseline"
                )

    mean_ns = bench.get("mean_ns_per_loop")
    timing = (
        f", {mean_ns / 1000.0:.1f} us/loop (not gated)"
        if isinstance(mean_ns, (int, float))
        and not isinstance(mean_ns, bool)
        else ""
    )
    print(
        f"compile perf: {shape['loops'][0]} loops on "
        f"{shape['machine'][0]}{timing}; "
        + ", ".join(f"{key} {value}" for key, value in measured.items())
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("compile perf gate: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
