"""CI gate over the machine-readable exploration record (BENCH_explore.json).

Structural checks — all deterministic, no retries needed:

* schema: every required header/counter key is present, every point row
  carries its index/label/status (+ metrics when completed, error when
  failed), and every summary names its objective;
* conservation: offered == completed + failed + skipped, the row count is
  completed + failed, and warm_hits (points forked from a shared prefix) +
  cold_starts (points run from t = 0) equals the points executed this run
  (rows minus resumed);
* fork saving: steps_executed (engine steps actually marched) is at most
  the executed rows' trajectory steps, and equal to them when nothing was
  forked;
* the Pareto front is non-empty and every front index is a *completed* row;
* with --require-warm (the first full run of the smoke job): the scheduler
  actually fanned out (threads_used > 1) and forks actually happened
  (warm_hits > 0);
* with --require-resumed (the post-kill --resume pass): at least one row
  was recovered from the result store instead of recomputed.

Usage: python3 ci_check_explore.py [--require-warm] [--require-resumed]
"""

import json
import sys

require_warm = "--require-warm" in sys.argv[1:]
require_resumed = "--require-resumed" in sys.argv[1:]
for flag in sys.argv[1:]:
    if flag not in ("--require-warm", "--require-resumed"):
        sys.exit(f"unknown flag {flag}")

with open("BENCH_explore.json") as f:
    record = json.load(f)

HEADER_KEYS = [
    "experiment",
    "base",
    "axes",
    "subsample",
    "seed",
    "offered",
    "completed",
    "failed",
    "skipped",
    "workers",
    "threads_used",
    "steals",
    "warm_hits",
    "cold_starts",
    "steps_executed",
    "resumed",
    "dropped_regions",
    "points",
    "pareto_front",
    "summaries",
]
for key in HEADER_KEYS:
    if key not in record:
        sys.exit(f"record is missing `{key}`")
if record["experiment"] != "explore":
    sys.exit(f"unexpected experiment `{record['experiment']}`")

offered = record["offered"]
completed = record["completed"]
failed = record["failed"]
skipped = record["skipped"]
if offered != completed + failed + skipped:
    sys.exit(
        f"accounting does not balance: offered {offered} != "
        f"completed {completed} + failed {failed} + skipped {skipped}"
    )
if len(record["points"]) != completed + failed:
    sys.exit(
        f"row count {len(record['points'])} != completed {completed} + failed {failed}"
    )

completed_indices = set()
seen_indices = set()
for point in record["points"]:
    for key in ("index", "label", "status", "warm", "resumed"):
        if key not in point:
            sys.exit(f"point row is missing `{key}`: {point}")
    if point["index"] in seen_indices:
        sys.exit(f"duplicate point index {point['index']}")
    seen_indices.add(point["index"])
    if point["status"] == "completed":
        for key in ("energy_gain_j", "dip_v", "wall_s", "steps", "v_first", "v_last"):
            if key not in point:
                sys.exit(f"completed row {point['index']} is missing `{key}`")
        completed_indices.add(point["index"])
    elif point["status"] == "failed":
        if "error" not in point:
            sys.exit(f"failed row {point['index']} is missing `error`")
    else:
        sys.exit(f"row {point['index']}: unknown status `{point['status']}`")
if len(completed_indices) != completed:
    sys.exit(
        f"completed rows {len(completed_indices)} != completed counter {completed}"
    )

executed = len(record["points"]) - record["resumed"]
if record["warm_hits"] + record["cold_starts"] != executed:
    sys.exit(
        f"warm_hits {record['warm_hits']} + cold_starts {record['cold_starts']} "
        f"!= executed rows {executed}"
    )

executed_steps = sum(
    point["steps"]
    for point in record["points"]
    if point["status"] == "completed" and not point["resumed"]
)
if record["steps_executed"] > executed_steps:
    sys.exit(
        f"steps_executed {record['steps_executed']} exceeds the executed rows' "
        f"steps {executed_steps}"
    )
if record["warm_hits"] == 0 and record["steps_executed"] != executed_steps:
    sys.exit(
        f"nothing was forked, yet steps_executed {record['steps_executed']} "
        f"!= the executed rows' steps {executed_steps}"
    )

front = record["pareto_front"]
if not front:
    sys.exit("the Pareto front is empty")
for index in front:
    if index not in completed_indices:
        sys.exit(f"Pareto front index {index} is not a completed row")

for summary in record["summaries"]:
    for key in ("objective", "min", "max", "mean"):
        if key not in summary:
            sys.exit(f"summary is missing `{key}`: {summary}")

if require_warm:
    if record["threads_used"] <= 1:
        sys.exit(f"threads_used {record['threads_used']} <= 1 — no fan-out")
    if record["warm_hits"] <= 0:
        sys.exit("warm_hits == 0 — no point was forked from a shared prefix")
if require_resumed and record["resumed"] <= 0:
    sys.exit("resumed == 0 — the --resume pass recomputed everything")

print(
    f"gate passed: {completed}/{offered} completed ({failed} failed, "
    f"{skipped} skipped), threads_used {record['threads_used']}, "
    f"steals {record['steals']}, forked {record['warm_hits']} / "
    f"cold {record['cold_starts']}, steps marched {record['steps_executed']} "
    f"of {executed_steps}, resumed {record['resumed']}, "
    f"front {len(front)} point(s)"
)
