"""graphit benchmark: fit throughput per workload, or per-layer times when traced.

Run from the repository root:

    python3 perfbench/run.py --workload table2-8-4 --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it runs the same inputs untraced and then
traced, and reports the per-layer metrics. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it are a readable report. Spans of a traced run are written
to ``.perfbench-out/``. See perfbench/README.md.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is imported: the OpenBLAS
# build is threaded, and the benchmark measures jobs=1 behaviour.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from summary import fail_frac, median  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".perfbench-out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("table2-8-4", "wide-short", "quick-cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and set up, print the set-up seconds and exit")
    return p.parse_args(argv)


def import_graphit():
    """Import graphit from the checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "graphit" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'graphit'} not found; run from the repository root")
    sys.path.insert(0, str(src))
    import graphit

    if Path(graphit.__file__).resolve().parent != (src / "graphit").resolve():
        raise SystemExit(f"error: imported graphit from {graphit.__file__}, not from {src}")
    return graphit


def setup_workload(args):
    import_graphit()
    import workloads

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    api = workloads.public_api()
    wl = workloads.make(args.workload, ROOT, args.seed, api, reference, OUT / "cli-tmp")
    wl.setup()
    return wl, api


def setup_seconds(args, first: float) -> list[float]:
    """Set-up time of this process plus that of fresh processes doing the same set-up."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_phase(ops, seconds: float):
    """Run ops until `seconds` have passed, at least one; the op in flight finishes."""
    outcomes, done = [], []
    start = time.perf_counter()
    for op in ops:
        outcomes += op.run()
        done.append(op)
        if time.perf_counter() - start >= seconds:
            break
    return outcomes, done, time.perf_counter() - start


def quality_ratio(outcomes, metric: str) -> float:
    pairs = [o.quality[metric] for o in outcomes if metric in o.quality]
    ref = sum(r for _, r in pairs)
    return sum(v for v, _ in pairs) / ref if ref else float("nan")


def end_to_end(outcomes, wall: float, setups: list[float]) -> dict[str, float]:
    times = [o.seconds for o in outcomes if o.error is None]
    return {
        "fits_per_s": len(times) / wall,
        "fit_s_p50": median(times) if times else float("nan"),
        "setup_s": median(setups),
        "rmse_vs_ref": quality_ratio(outcomes, "rmse"),
        "f1_vs_ref": quality_ratio(outcomes, "f1"),
    }


E2E_UNITS = {"fits_per_s": "fits/s", "fit_s_p50": "s", "setup_s": "s",
             "rmse_vs_ref": "ratio", "f1_vs_ref": "ratio"}


def metadata() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # show_config's layout is not a stable interface
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def traced_run(wl, api, seconds: float):
    import graphit.algorithms
    import graphit.cli
    import tracing

    wl.reset()
    base_outcomes, ops, base_wall = run_phase(wl.ops(), seconds / 2)
    wl.reset()
    tracer = tracing.Tracer()
    tracing.install_graphit_spans(tracer, api, graphit.algorithms, graphit.cli)
    try:
        root = tracer.open(tracing.HARNESS)
        outcomes, _, wall = run_phase(ops, math.inf)
        tracer.close(root)
    finally:
        tracer.restore()
    OUT.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT / f"trace-{wl.name}.jsonl")
    return base_outcomes + outcomes, tracing.layer_metrics(tracer, wall, base_wall)


def report(args, meta, outcomes, metrics, units, extra_lines) -> None:
    failures = [o for o in outcomes if o.reason is not None]
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(outcomes)} fits attempted, {len(failures)} failed, "
          f"fail_frac {fail_frac(o.reason for o in outcomes):.4g} ratio")
    for line in extra_lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units.get(name, '')}")
    seen = set()
    for o in failures:
        if (o.key, o.reason) not in seen:
            seen.add((o.key, o.reason))
            print(f"failure {o.key}: {o.reason}")


def timed_run(args, wl, first_setup: float):
    """The end-to-end measurement: set-up samples, then fits until time is up, untraced."""
    setups = setup_seconds(args, first_setup)
    outcomes, _, wall = run_phase(wl.ops(), args.seconds)
    done = [o for o in outcomes if o.error is None]
    times = sorted(o.seconds for o in done)
    lines = [f"timed phase {wall:.3f} s; fit_s_p50 over n={len(times)} fits, "
             f"max {times[-1] if times else float('nan'):.4g} s",
             f"setup_s samples {' '.join(f'{s:.4f}' for s in setups)}"]
    lib = [o.values for o in done if "objective_final" in o.values]
    if lib:
        mean = {k: sum(v[k] for v in lib) / len(lib) for k in ("rmse", "f1", "objective_final")}
        lines.append(f"raw means over completed fits: rmse_mean {mean['rmse']:.6g}, "
                     f"f1_mean {mean['f1']:.6g}, "
                     f"objective_final_mean {mean['objective_final']:.8g} nats")
    return outcomes, end_to_end(outcomes, wall, setups), lines


def main(argv=None) -> int:
    args = parse_args(argv)
    wl, api = setup_workload(args)
    first_setup = time.perf_counter() - T0
    if args.setup_only:
        print(repr(first_setup))
        return 0
    meta = metadata()
    try:
        if args.trace:
            outcomes, metrics = traced_run(wl, api, args.seconds)
            units, lines = LAYER_UNITS, []
        else:
            outcomes, metrics, lines = timed_run(args, wl, first_setup)
            units = E2E_UNITS
    finally:
        shutil.rmtree(OUT / "cli-tmp", ignore_errors=True)
    report(args, meta, outcomes, metrics, units, lines)
    failed = sum(o.reason is not None for o in outcomes)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
