"""skewlab benchmark: end-to-end CLI timings and an outside-in traced run.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there. Every pass is a fresh interpreter (``bench/child.py``) that
imports ``skewlab.cli`` and runs the workload's command list through
``skewlab.cli.main`` in a closed loop with one caller. Passes repeat for
about ``--seconds`` (at least three are run). Every command's output is
checked (``bench/checks.py``).

With ``--trace 0`` the end-to-end metrics are printed:

- ``wall_s``: median seconds of one pass over the command list, after import;
- ``setup_s``: median seconds for a fresh interpreter to import
  ``skewlab.cli``, over import-only processes run between the passes and
  over every pass;
- ``peak_rss_mb``: median peak resident set size of a pass process.

With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics of the traced passes are printed (``bench/spans.py``): medians of
the self times, work counters (which must repeat exactly across passes,
else the run is incorrect), the traced wall time and the tracing overhead
(traced minus untraced median ``wall_s``).

Human-readable lines, including the fail ratio (failed over attempted
commands), quartiles and the interpreter, CPU count and platform, come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import checks
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")
SETUPS_PER_PASS = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150


class PassError(RuntimeError):
    """A child process failed as a whole (crash, timeout or no result)."""


def _child(src: str, *args: str) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, src, *args],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"child {args} did not finish within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise PassError(f"child {args} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def setup_sample(src: str) -> float:
    """Seconds for a fresh interpreter to import skewlab.cli."""
    return _child(src, "setup")["setup_s"]


def run_pass(src: str, workload: str, seed: int, traced: bool) -> dict:
    """One pass over the workload's commands in a fresh interpreter."""
    return _child(src, "pass", "1" if traced else "0", workload, str(seed))


def score(commands: list[tuple[str, list[str]]], passes: list[dict],
          digests: dict[str, str] = checks.DIGESTS) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every command of every pass."""
    attempted = failed = 0
    problems = []
    for result in passes:
        for (label, argv), res in zip(commands, result["results"]):
            attempted += 1
            found = checks.check(label, argv, res["rc"], res["out"], digests)
            if found:
                failed += 1
                problems.append(f"{label}: {'; '.join(found)} {res['err'][-500:]}".rstrip())
    return attempted, failed, problems


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def measure(src: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for ``seconds`` and return the result object."""
    commands = workloads.commands(workload, seed)
    kinds = (False, True) if trace else (False,)
    start = time.perf_counter()
    setup_sample(src)  # warm-up: writes the bytecode caches, not measured
    setups: list[float] = []
    passes: dict[bool, list[dict]] = {False: [], True: []}
    errors: list[str] = []
    rounds: list[float] = []
    while not errors:
        began = time.perf_counter()
        if not trace:  # spread over the run, like the passes
            setups += [setup_sample(src) for _ in range(SETUPS_PER_PASS)]
        for traced in kinds:
            try:
                passes[traced].append(run_pass(src, workload, seed, traced))
            except PassError as exc:
                errors.append(str(exc))
                break
        rounds.append(time.perf_counter() - began)
        # stop where the run ends closest to ``seconds``
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_PASSES and elapsed + statistics.median(rounds) / 2 > seconds:
            break

    all_passes = passes[False] + passes[True]
    attempted, failed, problems = score(commands, all_passes)
    # a pass that died counts all of its commands as failed
    attempted += len(errors) * len(commands)
    failed += len(errors) * len(commands)
    problems += errors

    walls = [p["wall_s"] for p in passes[False]]
    print(f"workload {workload}, seed {seed}: {len(passes[False])} untraced"
          f" and {len(passes[True])} traced passes of {len(commands)} commands,"
          f" closed loop with 1 caller, {time.perf_counter() - start:.1f} s")
    print(f"fail_ratio {failed / max(attempted, 1)} ratio ({failed} of {attempted} commands failed)")
    for problem in problems:
        print(f"FAIL {problem}")
    metrics: dict[str, dict] = {}
    correct = not problems and bool(walls)
    if not walls:
        return {"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}

    if not trace:
        setups += [p["setup_s"] for p in passes[False]]
        values = {
            "wall_s": (walls, "s"),
            "setup_s": (setups, "s"),
            "peak_rss_mb": ([p["peak_rss_mb"] for p in passes[False]], "MB"),
        }
        for name, (vals, unit) in values.items():
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
            print(f"{name} {statistics.median(vals):.6g} {unit} ({_spread(vals)})")
        for i, (label, _) in enumerate(commands):
            vals = [p["results"][i]["seconds"] for p in passes[False]]
            print(f"  {label}: median {statistics.median(vals):.6g} s ({_spread(vals)})")
    elif passes[True]:
        traced_walls = [p["wall_s"] for p in passes[True]]
        counters = passes[True][0]["counters"]
        for p in passes[True][1:]:
            if p["counters"] != counters:
                correct = False
                print(f"FAIL work counters differ between traced passes: {counters} vs {p['counters']}")
        traced_wall = statistics.median(traced_walls)
        for name in passes[True][0]["layers"]:
            vals = [p["layers"][name] for p in passes[True]]
            metrics[name] = {"value": statistics.median(vals), "unit": "s"}
            print(f"{name} {metrics[name]['value']:.6g} s"
                  f" ({100 * metrics[name]['value'] / traced_wall:.1f}% of traced wall; {_spread(vals)})")
        for name, count in counters.items():
            metrics[name] = {"value": count, "unit": "count"}
            print(f"{name} {count} count")
        functions = sorted({fn for p in passes[True] for fn in p["self_time"]})
        for fn in functions:
            vals = [p["self_time"].get(fn, 0.0) for p in passes[True]]
            print(f"  self time {fn}: median {statistics.median(vals):.6g} s")
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - statistics.median(walls), "unit": "s"}
        print(f"trace.wall_s {traced_wall:.6g} s ({_spread(traced_walls)});"
              f" untraced wall_s {statistics.median(walls):.6g} s ({_spread(walls)})")
        print(f"trace.overhead_s {metrics['trace.overhead_s']['value']:.6g} s")
    else:
        correct = False
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # exit through subprocess.run's cleanup, which kills and reaps a running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "skewlab", "cli.py")):
        sys.stderr.write(f"bench: no skewlab sources at {src}; run from a source checkout\n")
        return 1
    sys.path.insert(0, src)  # the output checks re-verify witnesses with the program's own types
    print(json.dumps({
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }))
    try:
        result = measure(src, args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:  # the import-only processes failed: no result at all
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
