#!/usr/bin/env python3
"""Validates a Chrome trace-event JSON produced by --trace.

Checks the shape Perfetto/chrome://tracing require: a traceEvents
list whose entries carry name/ph/pid/tid/ts, complete ('X') events
with a non-negative dur, and thread_name metadata for every lane that
recorded events. With --expect-decisions it additionally requires at
least one assignment-cascade decision event with per-cluster
verdicts.

cache_probe instants (emitted whenever a compile consults the
persistent compile cache) are always validated when present: the
outcome arg must be "hit" or "miss", and a hit must carry the served
II. --expect-cache-probes N requires at least N
cache_probe events (use on runs driven with --cache-dir).

Usage: check_trace.py TRACE.json [--expect-decisions] [--min-lanes N]
       [--expect-cache-probes N]
"""

import argparse
import json
import sys


def fail(message):
    print(f"check_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("trace")
    parser.add_argument("--expect-decisions", action="store_true",
                        help="require assign_decide events with "
                             "per-cluster verdicts")
    parser.add_argument("--min-lanes", type=int, default=1,
                        help="minimum distinct tids with events")
    parser.add_argument("--expect-cache-probes", type=int, default=0,
                        metavar="N",
                        help="require at least N cache_probe events")
    args = parser.parse_args()

    try:
        with open(args.trace) as handle:
            trace = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot load {args.trace}: {err}")

    if not isinstance(trace, dict):
        fail(f"{args.trace}: top level must be a JSON object, "
             f"got {type(trace).__name__}")
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")

    lanes = set()
    named_lanes = set()
    scopes = 0
    decisions = 0
    cache_probes = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"event {i} is not an object: {event!r}")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                fail(f"event {i} lacks '{key}': {event}")
        if not isinstance(event["tid"], (str, int)):
            fail(f"event {i} has non-scalar tid: {event!r}")
        ph = event["ph"]
        if ph == "M":
            if event["name"] == "thread_name":
                named_lanes.add(event["tid"])
            continue
        if "ts" not in event:
            fail(f"event {i} lacks 'ts': {event}")
        lanes.add(event["tid"])
        event_args = event.get("args")
        if not isinstance(event_args, dict):
            event_args = {}
        if ph == "X":
            scopes += 1
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) \
                    or isinstance(dur, bool) or dur < 0:
                fail(f"complete event {i} has negative/missing dur")
        elif ph == "i":
            if event["name"] == "assign_decide":
                verdicts = event_args.get("verdicts", "")
                if not isinstance(verdicts, str) \
                        or ":" not in verdicts:
                    fail(f"assign_decide without verdicts: {event}")
                decisions += 1
            elif event["name"] == "cache_probe":
                outcome = event_args.get("outcome")
                if outcome not in ("hit", "miss"):
                    fail(f"cache_probe with bad outcome: {event}")
                if outcome == "hit" and not str(
                        event_args.get("ii", "")).isdigit():
                    fail(f"cache_probe hit without served II: {event}")
                cache_probes += 1
        else:
            fail(f"event {i} has unexpected ph '{ph}'")

    if scopes == 0:
        fail("no phase scopes ('X' events) recorded")
    if len(lanes) < args.min_lanes:
        fail(f"{len(lanes)} lanes recorded, expected >= "
             f"{args.min_lanes}")
    if missing := lanes - named_lanes:
        fail(f"lanes without thread_name metadata: {sorted(missing)}")
    if args.expect_decisions and decisions == 0:
        fail("no assign_decide events (is --trace-level decision on?)")
    if cache_probes < args.expect_cache_probes:
        fail(f"{cache_probes} cache_probe events, expected >= "
             f"{args.expect_cache_probes} (was --cache-dir set and "
             f"--trace-level decision on?)")

    print(f"check_trace: OK: {len(events)} events, {scopes} scopes, "
          f"{decisions} decisions, {cache_probes} cache probes, "
          f"{len(lanes)} lanes")


if __name__ == "__main__":
    main()
