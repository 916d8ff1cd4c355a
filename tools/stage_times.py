"""In-process stage times of generating and unitarizing S_n natural-action instances.

Usage (from anywhere)::

    python3 tools/stage_times.py [--checkout DIR]

The instances are S5-natural and S6-natural: S_n acting on its n points,
with the trivial base representation at dim 2, cond bound 4 and seed 0.
Each instance runs in a fresh child process that imports the package from
``DIR/src`` (default: the checkout that holds this file) and times each
stage on the same inputs, as the minimum over 5 calls:

* ``groupoid._validate_group`` on the group, ``build_action_groupoid`` on
  the spec and ``check_base_rep`` on the base;
* ``generate_instance``, which runs the three above and then
  ``make_representation`` on what it generates;
* ``make_representation`` on the generated matrices;
* ``check_representation`` on the generated representation: the
  functoriality kernel alone, which ``make_representation`` runs on input
  and ``unitarize`` on output;
* ``unitarize``;
* ``verify_similarity`` of the input and ``unitarize``'s output under its
  witness, at tolerance ``VERIFY_TOL``: the stacked witness check and the
  residual of every positive-mass arrow.

One row per instance gives the times in ms and the child's peak resident
set in MB (``getrusage``), which includes the imports and every stage.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = (
    "_validate_group",
    "build_action_groupoid",
    "check_base_rep",
    "generate_instance",
    "make_representation",
    "check_representation",
    "unitarize",
    "verify_similarity",
)
DIM, COND, SEED = 2, 4.0, 0
VERIFY_TOL = 1e-5  # the benchmark gate's tolerance
INSTANCES, REPEAT = ("S5-natural", "S6-natural"), 5


def _best(call, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def stage_times(name: str, repeat: int) -> dict:
    """Seconds per stage (the minimum of ``repeat`` calls) and ``peak_rss_mb`` for ``name``."""
    from unitarizer import groupoid
    from unitarizer import representation as rp

    match = re.fullmatch(r"S([1-9])-natural", name)
    if match is None:
        raise ValueError(f"unknown instance {name!r}: expected S<n>-natural")
    spec = groupoid.natural_permutation_action(int(match[1]))
    base = rp.trivial_base_rep(spec.group, DIM)
    rep = rp.generate_instance(spec, base, COND, SEED)
    witness, unitary, _ = rp.unitarize(rep)
    psi = {x: p.mat for x, p in witness.psi.items()}
    calls = {
        "_validate_group": lambda: groupoid._validate_group(spec.group),
        "build_action_groupoid": lambda: groupoid.build_action_groupoid(spec),
        "check_base_rep": lambda: rp.check_base_rep(spec.group, base, DIM),
        "generate_instance": lambda: rp.generate_instance(spec, base, COND, SEED),
        "make_representation": lambda: rp.make_representation(rep.groupoid, DIM, rep.rho),
        "check_representation": lambda: rp.check_representation(rep),
        "unitarize": lambda: rp.unitarize(rep),
        "verify_similarity": lambda: rp.verify_similarity(rep, unitary, psi, VERIFY_TOL),
    }
    out = {stage: _best(calls[stage], repeat) for stage in STAGES}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", type=Path, default=ROOT)
    p.add_argument("--child", help=argparse.SUPPRESS)  # the instance a child process times
    args = p.parse_args(argv)
    if args.child:
        sys.path.insert(0, str(args.checkout.resolve() / "src"))
        print(json.dumps(stage_times(args.child, REPEAT)))
        return 0
    print(f"checkout {args.checkout.resolve()}, min of {REPEAT}; times in ms")
    print(" ".join(["instance".ljust(12), *(s.rjust(len(s)) for s in STAGES), "peak_rss_mb"]))
    for name in INSTANCES:
        child = subprocess.run(
            [sys.executable, __file__, "--child", name, "--checkout", str(args.checkout)],
            capture_output=True, text=True, check=True,
        )
        row = json.loads(child.stdout)
        cells = [f"{1e3 * row[s]:.1f}".rjust(len(s)) for s in STAGES]
        print(" ".join([name.ljust(12), *cells, f"{row['peak_rss_mb']:.1f}".rjust(11)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
