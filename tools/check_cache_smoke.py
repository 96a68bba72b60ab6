#!/usr/bin/env python3
"""Gate a cold/warm compile-cache pair of BENCH_batch.json files.

The warm-cache contract (DESIGN.md section 10): a rerun of the same
suite against a populated cache must reproduce every figure of the
cold run exactly -- the cache serves stored results, it never invents
them -- while being substantially faster. This script compares the
BENCH_batch.json written by a cold run (empty --cache-dir) against the
one written by a warm rerun and fails (exit 1) when any of:

  * any non-timing figure differs between the two files (per-loop II
    aggregates, copies, attempts, failure kinds, ...); timing fields
    (wall/cpu milliseconds, speedups) and the cache counters
    themselves are exempt, as is the embedded metrics snapshot whose
    histograms include wall-time series;
  * the warm run's full-result hit rate falls below --min-hit-rate
    (default 0.99) over its serial arm;
  * the warm wall time (--warm-wall, seconds, measured around the
    whole warm binary run by the caller) is not below
    --max-wall-fraction (default 0.5) of the cold wall time
    (--cold-wall). Whole-binary times are compared because the
    figures inside one binary run share the cache: the batch bench's
    serial arm is already warmed by the figure passes before it, so
    the in-JSON wall_ms fields cannot witness the cold/warm gap.

Usage:
  tools/check_cache_smoke.py COLD.json WARM.json \
      --cold-wall SECONDS --warm-wall SECONDS \
      [--min-hit-rate 0.99] [--max-wall-fraction 0.5]
"""

import argparse
import json
import sys

# Fields that legitimately differ between a cold and a warm run.
VOLATILE = {
    "wall_ms",
    "cpu_ms",
    "serial_wall_ms",
    "parallel_wall_ms",
    "speedup",
    "cache_hits",
    "cache_misses",
    "metrics",
}


def load_json(path, what):
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


def figures(data):
    """Strips volatile (timing/cache) fields, recursively."""
    if isinstance(data, dict):
        return {
            key: figures(value)
            for key, value in data.items()
            if key not in VOLATILE
        }
    if isinstance(data, list):
        return [figures(value) for value in data]
    return data


def diff_paths(a, b, prefix=""):
    """Paths at which two stripped documents disagree."""
    if isinstance(a, dict) and isinstance(b, dict):
        paths = []
        for key in sorted(set(a) | set(b)):
            where = f"{prefix}.{key}" if prefix else key
            if key not in a or key not in b:
                paths.append(f"{where} (only in one file)")
            else:
                paths.extend(diff_paths(a[key], b[key], where))
        return paths
    if a != b:
        return [f"{prefix}: cold={a!r} warm={b!r}"]
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("cold", help="BENCH_batch.json of the cold run")
    parser.add_argument("warm", help="BENCH_batch.json of the warm rerun")
    parser.add_argument(
        "--min-hit-rate",
        type=float,
        default=0.99,
        help="required warm full-result hit rate",
    )
    parser.add_argument(
        "--cold-wall",
        type=float,
        required=True,
        help="wall seconds of the whole cold run",
    )
    parser.add_argument(
        "--warm-wall",
        type=float,
        required=True,
        help="wall seconds of the whole warm run",
    )
    parser.add_argument(
        "--max-wall-fraction",
        type=float,
        default=0.5,
        help="warm wall time bound, as a fraction of cold",
    )
    args = parser.parse_args()

    cold = load_json(args.cold, "cold bench JSON")
    warm = load_json(args.warm, "warm bench JSON")

    failures = []

    mismatches = diff_paths(figures(cold), figures(warm))
    if mismatches:
        failures.append(
            "warm figures differ from cold: " + "; ".join(mismatches[:10])
        )

    serial = warm.get("serial")
    if not isinstance(serial, dict):
        sys.exit(
            f"error: warm bench JSON '{args.warm}' is missing its "
            f"'serial' section (found {type(serial).__name__}); was "
            "it produced by bench/scheduler_compare?"
        )
    jobs = serial.get("jobs", 0)
    hits = serial.get("cache_hits", 0)
    if not isinstance(hits, (int, float)) or isinstance(hits, bool):
        sys.exit(
            f"error: warm bench JSON '{args.warm}' has non-numeric "
            f"'cache_hits' ({hits!r})"
        )
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs <= 0:
        failures.append(f"warm serial arm reports no jobs ({jobs!r})")
        hit_rate = 0.0
    else:
        hit_rate = hits / jobs
    if hit_rate < args.min_hit_rate:
        failures.append(
            f"warm hit rate {hit_rate:.3f} ({hits}/{jobs}) below "
            f"required {args.min_hit_rate:.3f}"
        )

    if args.cold_wall <= 0:
        failures.append(f"bad --cold-wall {args.cold_wall}")
    elif args.warm_wall >= args.cold_wall * args.max_wall_fraction:
        failures.append(
            f"warm run {args.warm_wall:.2f} s not below "
            f"{args.max_wall_fraction:.0%} of cold "
            f"{args.cold_wall:.2f} s"
        )
    else:
        print(
            f"cache smoke: warm {args.warm_wall:.2f} s vs cold "
            f"{args.cold_wall:.2f} s "
            f"({args.warm_wall / args.cold_wall:.1%}), "
            f"hit rate {hit_rate:.3f}"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("cache smoke gate: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
