"""Append benchmark results to the committed performance trajectory.

Runs `perfbench/run.py --trace 0` once per seed in each given checkout and
appends one entry per checkout to `BENCH_<workload>.json` at the root of
this repository. With two checkouts (a parent and a change) the runs
alternate in pairs on the same seed, and which side runs first alternates
from pair to pair, so both entries come from the same harness and the same
stretch of machine time:

    python3 tools/record_bench.py --workload onboard --seeds 101-110 \\
        --checkout ../parent=parent --checkout .=change

An entry records the commit and whether its tree had uncommitted changes,
the date, `nproc`, the BLAS thread variables, the seeds, how many runs were
correct, the operations attempted and failed, and for every end-to-end
metric its per-seed values, median and quartiles (inclusive method). The
file is a JSON list that only grows.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_seeds(text: str) -> list[int]:
    """`101-110` or `5,7,9` (or a mix) to a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: seed {seed} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(label: str, checkout: Path, workload: str, seconds: float, seeds, results) -> dict:
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        metrics[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3, "values": values}
    return {
        "label": label,
        "commit": git(checkout, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(git(checkout, "status", "--porcelain", "--", "src", "perfbench")),
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "machine": {"nproc": os.cpu_count(), **{v: os.environ.get(v) for v in BLAS_VARIABLES}},
        "workload": workload,
        "seconds": seconds,
        "seeds": list(seeds),
        "runs_correct": sum(bool(r["correct"]) for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("onboard", "investigate", "gateway"))
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 101-110 or 5,7,9")
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument(
        "--checkout", action="append", required=True, metavar="DIR=LABEL",
        help="a git checkout to run, and the label of its entry; give it once or twice",
    )
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    sides = []
    for spec in args.checkout:
        path, _, label = spec.partition("=")
        sides.append((Path(path).resolve(), label or Path(path).resolve().name))

    results = {label: [] for _, label in sides}
    for i, seed in enumerate(args.seeds):
        order = sides if i % 2 == 0 else sides[::-1]
        for checkout, label in order:
            result = run_once(checkout, args.workload, seed, args.seconds)
            results[label].append(result)
            print(f"seed {seed} {label}: correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)

    out = ROOT / f"BENCH_{args.workload}.json"
    history = json.loads(out.read_text()) if out.exists() else []
    for checkout, label in sides:
        history.append(summarize(label, checkout, args.workload, args.seconds, args.seeds, results[label]))
    out.write_text(json.dumps(history, indent=1) + "\n")
    print(f"appended {len(sides)} entries to {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
