"""Run one benchmark workload of leocsi and print its metrics.

    python3 bench/run.py --workload desk-study --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the same checkout, with one BLAS thread.  Rounds of the workload run until
``--seconds`` have passed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The metrics
are those ``BENCHMARK.json`` names: with ``--trace 0`` its ``end_to_end``
ones; with ``--trace 1`` the first third of the time runs untraced, the
rest traced, and the metrics are its ``per_layer`` ones.  The spans of a
traced run are written to ``bench/traces/<workload>.npz``.
"""
import os
import sys

# One BLAS thread, set before numpy loads; no bytecode left in the tree.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


def seconds_since_process_start() -> float:
    """Boot-clock time since this process started (Linux).

    The kernel gives the start in clock ticks (10 ms); the boot clock
    itself is read to the nanosecond.
    """
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        import leocsi
    except ImportError as exc:
        print(f"bench: cannot import leocsi from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(leocsi.__file__).startswith(SRC + os.sep):
        print(f"bench: leocsi resolved outside this checkout: {leocsi.__file__}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    # Turn SIGTERM into SystemExit so the scratch directory is still removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        return _run(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload_cls, workdir: str) -> int:
    import metrics
    from checks import Checks
    from tracer import Tracer
    from workloads import Round

    checks = Checks()
    workload = workload_cls(args.seed, workdir, checks)
    setup_s = seconds_since_process_start()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    attempted = failed = 0
    tried = {False: 0, True: 0}  # rounds attempted untraced / traced
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if elapsed >= args.seconds and tried[False] and (tracer is None or tried[True]):
            break
        tracing = tracer is not None and tried[False] > 0 and elapsed >= args.seconds / 3
        if tracing and not tried[True]:
            tracer.install()
        # Traced rounds repeat the inputs of the untraced ones (round index
        # restarts at 0), so the tracing overhead compares equal work.
        rnd = Round(tracer if tracing else None)
        attempted += workload.ops_per_round
        try:
            workload.check(workload.run_round(tried[tracing], rnd))
        except Exception as exc:  # one failed round must not end the run
            traceback.print_exc()
            failed += workload.ops_per_round
            checks.require(False, f"round {tried[tracing]} raised {exc!r}")
        else:
            (traced if tracing else plain).append((tried[tracing], rnd))
        tried[tracing] += 1
    if tracer is not None:
        tracer.uninstall()

    workload.final_checks()
    if not plain or (tracer is not None and not traced):
        print("bench: no round completed", file=sys.stderr)
        return 1
    for failure in checks.failures[:20]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)

    wall_s = statistics.median(r.wall_s for _, r in plain)
    print(f"{args.workload}: seed {args.seed}, {len(plain)} untraced + {len(traced)} traced rounds, "
          f"{checks.passed} checks passed, {len(checks.failures)} failed")
    if tracer is None:
        for name, (value, unit) in workload.stage_metrics([r for _, r in plain]).items():
            print(f"stage {name} = {value:.6g} {unit}")
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result_metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in spec["end_to_end"]}
    else:
        untraced = dict(plain)
        paired = [r.wall_s - untraced[i].wall_s for i, r in traced if i in untraced]
        if not paired:  # round 0 failed untraced: fall back to unpaired medians
            paired = [statistics.median(r.wall_s for _, r in traced) - wall_s]
        overhead = statistics.median(paired)
        print(f"tracing overhead: traced wall_s - untraced wall_s = {overhead:.6g} s "
              f"on {wall_s:.6g} s (median over {len(paired)} rounds with equal inputs)")
        spans = tracer.aggregate()
        result_metrics = {}
        for m in spec["per_layer"]:
            value = metrics.layer_value(m["name"], spans, tracer.counters, len(traced), overhead)
            result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"layer {m['name']} = {value:.6g} {m['unit']}  -> {metrics.should_move(m['name'])}")
        trace_dir = os.path.join(HERE, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.save(os.path.join(trace_dir, f"{args.workload}.npz"))

    print(json.dumps({"correct": checks.correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
