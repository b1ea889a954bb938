"""Run the benchmark over several seeds and report each metric's median and spread.

Run from the repository root, for example

    python3 perfbench/spread.py --workload wide-short --seeds 1-10 --trace 0 --json out.json

Runs are made one after another. Spread is the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, the figure BENCHMARK.json's bounds are set against.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from summary import quartiles, spread

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=int,
                   default=json.loads(Path("BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="write per-run results and the summary here")
    args = p.parse_args()

    record = {}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append(result)
            print(workload, seed, "correct" if result["correct"] else "INCORRECT",
                  f"{result['failed']}/{result['attempted']} failed",
                  " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = quartiles(values) if len(values) > 1 else values * 3
            summary[name] = {"q1": q1, "median": q2, "q3": q3,
                             "spread": spread(values) if q2 and len(values) > 1 else None,
                             "unit": runs[0]["metrics"][name]["unit"]}
            print(f"  {workload} {name}: median {q2:.6g} [{q1:.6g}, {q3:.6g}] "
                  f"spread {summary[name]['spread'] if summary[name]['spread'] is not None else float('nan'):.4f}", flush=True)
        record[workload] = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
                            "runs": runs, "summary": summary}
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
