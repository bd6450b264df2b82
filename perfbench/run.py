"""Benchmark of the gair package: pretrain, evaluate and heatmap workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One workload runs in this process; `all` runs each workload in its own child
process, because peak RSS is per process. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics of the traced
run with --trace 1. The lines before it print every metric by name with its
unit, under its workload-specific name as well (see DESIGN.md). The result,
the environment and, for a traced run, every span are also written to
.bench_out/ at the checkout root. The exit code is 0 when every check passed, 1 when a check failed and
2 when the gair sources cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("pretrain", "evaluate", "heatmap")


def pin_threads() -> int:
    """Give BLAS one thread per usable CPU. This must run before numpy is
    first imported: BLAS reads these variables once, when it loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_gair():
    """Import gair from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gair
    except ImportError as exc:
        print(f"error: cannot import gair from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(gair.__file__).resolve().is_relative_to(src):
        print(f"error: gair was imported from {gair.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(nproc, seed) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_one(args, nproc) -> int:
    import_gair()
    import spans
    import workloads

    env = environment(nproc, args.seed)
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    recorder = spans.SpanRecorder() if args.trace else None
    try:
        m = workloads.WORKLOADS[args.workload](args.seed, args.seconds, recorder, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    print(f"env {json.dumps(env, sort_keys=True)}")
    result = {"workload": args.workload, "env": env, "failures": m.failures}
    metrics = {}
    if not m.primary_ms or (recorder is not None and not m.traced_primary_ms):
        m.failures.append("no operation completed, so there are no metrics")
        m.failed += 1
    else:
        e2e = workloads.end_to_end(m, peak_rss_mb)
        named = workloads.NAMED[args.workload](e2e, m)
        named.update({"setup_s": e2e["setup_s"], "peak_rss_mb": e2e["peak_rss_mb"],
                      "failed_share": (m.failed / m.attempted, "share")})
        _, tail_pct = workloads.tail(m.primary_ms)
        print(f"{args.workload}: {len(m.primary_ms)} timed operations, {len(m.setup_s)} set-ups, "
              f"tail = p{tail_pct:.1f} of the primary latency")
        for name, (value, unit) in named.items():
            print(f"  {name} = {value:.6g} {unit}")
        result.update(end_to_end=e2e, named=named, tail_percentile=tail_pct)
        metrics = e2e
    if recorder is not None:
        m.check("span nesting", recorder.nesting_errors()[:3])
        if metrics:
            overhead = statistics.median(m.traced_primary_ms) / statistics.median(m.primary_ms) - 1.0
            metrics = spans.layer_metrics(recorder, overhead)
            for name, (value, unit) in metrics.items():
                print(f"  {name} = {value:.6g} {unit}")
        for name in recorder.missing:
            print(f"  missing wrapper: {name}")
        breakdown = recorder.step_breakdown_ms("training.train_step")
        if breakdown:
            print("  mean traced train_step: wall {:.3f} ms = child spans {:.3f} ms + step_other {:.3f} ms".format(*breakdown))
        result.update(missing=recorder.missing, spans=recorder.spans, counts=recorder.counts)
    for failure in m.failures:
        print(f"FAILED {failure}")
    result["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(result, default=float) + "\n")

    correct = m.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own child process; relays their report lines."""
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            sys.exit(f"error: workload {workload} exited with {child.returncode}")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    nproc = pin_threads()
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    if args.workload == "all":
        return run_all(args)
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
