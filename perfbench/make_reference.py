"""Regenerate reference.json: every pool entry of every workload, at the current commit.

Run from the repository root, only at a commit whose estimates are the
accepted reference (the correctness check compares later commits to it):

    python3 perfbench/make_reference.py [--workload NAME ...]

It takes about ten minutes on two cores for all three workloads.
"""

import argparse
import itertools
import json
import shutil
import sys

import run  # sets the thread variables before numpy is imported


def reference_entries(wl, n_ops: int) -> dict:
    entries = {}
    for op in itertools.islice(wl.ops(), n_ops):
        outcomes = op.run()
        first = outcomes[0]
        entries[op.key] = {"error": first.error} if first.error else first.values
        print(op.key, json.dumps(entries[op.key])[:120], flush=True)
    return entries


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=run.WORKLOAD_NAMES)
    args = p.parse_args()
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    reference["commit"] = run.git_commit()
    run.import_graphit()
    import workloads

    api = workloads.public_api()
    try:
        for name in args.workload or run.WORKLOAD_NAMES:
            wl = workloads.make(name, run.ROOT, 0, api, {}, run.OUT / "cli-tmp")
            wl.order = list(range(workloads.POOL))
            wl.setup()
            ops_per_entry = 2 if name == "quick-cli" else len(wl.fits)
            reference[name] = reference_entries(wl, ops_per_entry * workloads.POOL)
    finally:
        shutil.rmtree(run.OUT / "cli-tmp", ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
