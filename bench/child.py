"""One measured pass in a fresh interpreter.

    python3 bench/child.py SRC_DIR setup
    python3 bench/child.py SRC_DIR pass TRACE WORKLOAD SEED

``setup`` imports ``skewlab.cli`` and prints the import time. ``pass`` does
the same, then runs the workload's commands through ``skewlab.cli.main`` one
after another (a closed loop with one caller), capturing each command's
stdout, stderr and exit code. With TRACE = 1 the layer spans are recorded
too. The result is one JSON object on stdout.

Every pass is a fresh process, so caches inside the program start cold on
every pass, as they do for a user who runs the command once. Only ``sys``
and ``time`` are imported before the import clock starts, so modules the
program needs are paid for inside ``setup_s``.
"""

import sys
import time

_t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import skewlab.cli  # noqa: E402

_setup_s = time.perf_counter() - _t0

import os  # noqa: E402  (already loaded by interpreter start-up)

if not os.path.realpath(skewlab.cli.__file__).startswith(os.path.realpath(sys.argv[1]) + os.sep):
    raise SystemExit(f"skewlab was imported from {skewlab.cli.__file__}, not {sys.argv[1]}")


def _run_pass(trace: bool, workload: str, seed: int) -> dict:
    import contextlib
    import io
    import resource
    import traceback

    import workloads

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    cli = sys.modules["skewlab.cli"]
    results = []
    clock = time.perf_counter
    start = clock()
    for _, argv in workloads.commands(workload, seed):
        began = clock()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed command, not a failed pass
                rc = None
                err.write(traceback.format_exc())
        results.append({
            "rc": rc,
            "out": out.getvalue(),
            "err": err.getvalue(),
            "seconds": clock() - began,
        })
    wall_s = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    payload = {
        "setup_s": _setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "results": results,
    }
    if tracer is not None:
        self_time, counts = tracer.summary()
        payload["self_time"] = self_time
        payload["layers"] = spans.layer_times(self_time)
        payload["counters"] = counts
    return payload


def main() -> None:
    import json

    if sys.argv[2] == "setup":
        print(json.dumps({"setup_s": _setup_s}))
        return
    trace, workload, seed = sys.argv[3] == "1", sys.argv[4], int(sys.argv[5])
    print(json.dumps(_run_pass(trace, workload, seed)))


if __name__ == "__main__":
    main()
