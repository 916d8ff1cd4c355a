"""Alternating parent/change benchmark pairs, written as one BENCH_<pr>_<workload>.json.

Usage (from anywhere)::

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload large-groupoid \
        --seed 301 --pr 11 [--out DIR] [--note TEXT]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Pair i of
``PAIRS`` = 10 runs
``python3 bench/run.py --workload W --seed S+i --seconds 5 --trace 0`` once
in each checkout, in a fresh process, the parent first in even pairs and the
change first in odd pairs.  The file records every run and, per end-to-end
metric that BENCHMARK.json lists, each side's min, quartiles, median and max,
the pairs the change won, the ratio of the medians and the parent's
interquartile range.  Each side's revision is recorded (see ``revision``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

BLAS_THREAD_VARS = ("MKL_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
SECONDS = 5
PAIRS = 10


def bench_command(workload: str, seed) -> list:
    return ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]


def revision(checkout: Path) -> str:
    """The checkout's git HEAD, with ``+dirty`` when tracked files differ from it.

    A checkout without its own ``.git`` (an export) is named by a digest of
    the files under its ``src/``, ``src-sha256:<hex>``.
    """
    git = ["git", "-C", str(checkout)]
    try:
        if (checkout / ".git").exists():
            head = subprocess.run([*git, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=True).stdout.strip()
            dirty = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                                   capture_output=True, text=True, check=True).stdout.strip()
            return head + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + digest.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, env: dict) -> dict:
    """One benchmark run; its exit code, counts and end-to-end metric values."""
    proc = subprocess.run(bench_command(workload, seed), cwd=checkout, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        last = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {
        "attempted": last["attempted"],
        "correct": last["correct"],
        "exit_code": proc.returncode,
        "failed": last["failed"],
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
    }


def stats(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"max": max(values), "median": median, "min": min(values), "q1": q1, "q3": q3}


def summarize(runs: list, metrics: list) -> dict:
    """Per metric: both sides' spread, pairs won by the change, median ratio."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        by_pair = {}
        for r in runs:
            if name in r["metrics"]:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        if len(pairs) < 2:
            continue
        parent = stats([p["parent"] for p in pairs])
        change = stats([p["change"] for p in pairs])
        won = sum((p["change"] < p["parent"]) if lower else (p["change"] > p["parent"])
                  for p in pairs)
        out[name] = {
            "change": change,
            "change_better_pairs": won,
            "median_ratio": change["median"] / parent["median"],
            "pairs": len(pairs),
            "parent": parent,
            "parent_iqr": parent["q3"] - parent["q1"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--pr", required=True, help="number in the output file name")
    ap.add_argument("--out", type=Path, default=Path("."), help="directory of the output file")
    ap.add_argument("--note", default="", help="appended to the protocol text")
    args = ap.parse_args(argv)

    env = dict(os.environ, **{v: "1" for v in BLAS_THREAD_VARS})
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = list(range(args.seed, args.seed + PAIRS))
    runs = []
    for pair, seed in enumerate(seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for k, side in enumerate(order):
            run = run_once(sides[side], args.workload, seed, env)
            runs.append({**run, "pair": pair, "ran_first": k == 0, "seed": seed, "side": side})
            print(f"pair {pair} seed {seed} {side}: {run['metrics'].get('wall_s')}",
                  file=sys.stderr)

    with open(sides["change"] / "BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    protocol = (
        f"{PAIRS} pairs at seeds {seeds[0]}-{seeds[-1]}; the parent ran first in even"
        " pairs and the change first in odd pairs; each side ran from its own copy of the files"
    )
    result = {
        "command": " ".join(bench_command(args.workload, "S")),
        "machine": {
            "blas_threads": {v: env[v] for v in BLAS_THREAD_VARS},
            "nproc": os.cpu_count(),
            "numpy": version("numpy"),
            "python": platform.python_version(),
        },
        "change": revision(sides["change"]),
        "parent": revision(sides["parent"]),
        "protocol": protocol + (f"; {args.note}" if args.note else ""),
        "runs": runs,
        "seeds": seeds,
        "summary": summarize(runs, metrics),
        "workload": args.workload,
    }
    path = args.out / f"BENCH_{args.pr}_{args.workload}.json"
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
