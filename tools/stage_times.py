"""In-process stage times of generating and unitarizing S_n natural-action instances.

Usage (from anywhere)::

    python3 tools/stage_times.py [--checkout DIR]

The instances are S5-natural and S6-natural: S_n acting on its n points,
with the trivial base representation at dim 2, cond bound 4 and seed 0.
Each instance runs in a fresh child process that imports the package from
``DIR/src`` (default: the checkout that holds this file) and times each
stage on the same inputs, as the minimum over 5 calls:

* ``natural_permutation_action``, which builds the spec: the group's
  product table and the action table;
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

The row ends with the CLI run of the instance: its input is generated and
written once to a temporary directory, as ``unitarizer generate`` writes
it, and ``cli.main(["unitarize", ...])`` runs on it in each of
``CLI_REPEAT`` = 3 fresh child processes.  ``cli`` is the minimum wall
time of that call in ms, ``cli_peak_rss_mb`` the minimum of those
children's peaks, imports included, and ``cli_exit`` their largest exit
code.  The row is evidence, not a gate.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = (
    "natural_permutation_action",
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
INSTANCES, REPEAT, CLI_REPEAT = ("S5-natural", "S6-natural"), 5, 3


def _best(call, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def _instance(name: str):
    """``n``, the spec, the base representation and the generated instance of ``name``."""
    from unitarizer import groupoid
    from unitarizer import representation as rp

    match = re.fullmatch(r"S([1-9])-natural", name)
    if match is None:
        raise ValueError(f"unknown instance {name!r}: expected S<n>-natural")
    n = int(match[1])
    spec = groupoid.natural_permutation_action(n)
    base = rp.trivial_base_rep(spec.group, DIM)
    return n, spec, base, rp.generate_instance(spec, base, COND, SEED)


def stage_times(name: str, repeat: int) -> dict:
    """Seconds per stage (the minimum of ``repeat`` calls) and ``peak_rss_mb`` for ``name``."""
    from unitarizer import groupoid
    from unitarizer import representation as rp

    n, spec, base, rep = _instance(name)
    witness, unitary, _ = rp.unitarize(rep)
    psi = {x: p.mat for x, p in witness.psi.items()}
    calls = {
        "natural_permutation_action": lambda: groupoid.natural_permutation_action(n),
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


def write_input(name: str, path: str) -> dict:
    """Write the instance ``name`` to ``path`` as ``unitarizer generate`` writes it; its size."""
    from unitarizer.serialization import _representation_value, save_json

    save_json(_representation_value(_instance(name)[3]), path)
    return {"bytes": Path(path).stat().st_size}


def cli_run(path: str) -> dict:
    """Seconds and exit code of one ``cli.main(["unitarize", path, ...])``, and the peak MB."""
    from unitarizer import cli

    out = str(Path(path).with_suffix(".out.json"))
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(["unitarize", path, "-o", out])
        wall = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"wall_s": wall, "peak_rss_mb": peak, "exit": code}


def _child(checkout: Path, *args) -> dict:
    """The JSON that this tool prints in a child process run with ``args``."""
    proc = subprocess.run([sys.executable, __file__, *args, "--checkout", str(checkout)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def cli_row(name: str, repeat: int, checkout: Path = ROOT) -> dict:
    """The minimum wall seconds and peak MB of ``repeat`` CLI children on one written input.

    ``exit`` is the largest exit code of those runs: 2 when a solve stops
    short of its certificate, which ends the run as a success would.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / f"{name}.json")
        _child(checkout, "--write", name, path)
        runs = [_child(checkout, "--cli", path) for _ in range(repeat)]
    out = {key: min(run[key] for run in runs) for key in ("wall_s", "peak_rss_mb")}
    return {**out, "exit": max(run["exit"] for run in runs)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", type=Path, default=ROOT)
    # What a child process does: time the stages of an instance, write its
    # input to a path, or run the CLI on a written input.
    p.add_argument("--child", help=argparse.SUPPRESS)
    p.add_argument("--write", nargs=2, help=argparse.SUPPRESS)
    p.add_argument("--cli", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child or args.write or args.cli:
        sys.path.insert(0, str(args.checkout.resolve() / "src"))
        if args.child:
            out = stage_times(args.child, REPEAT)
        elif args.write:
            out = write_input(*args.write)
        else:
            out = cli_run(args.cli)
        print(json.dumps(out))
        return 0
    print(f"checkout {args.checkout.resolve()}, min of {REPEAT} (cli: of {CLI_REPEAT});"
          " times in ms")
    columns = (*STAGES, "peak_rss_mb", "cli", "cli_peak_rss_mb", "cli_exit")
    print(" ".join(["instance".ljust(12), *columns]))
    for name in INSTANCES:
        row = _child(args.checkout, "--child", name)
        cli = cli_row(name, CLI_REPEAT, args.checkout)
        values = [*(1e3 * row[s] for s in STAGES), row["peak_rss_mb"],
                  1e3 * cli["wall_s"], cli["peak_rss_mb"]]
        cells = [f"{v:.1f}".rjust(len(c)) for c, v in zip(columns, values)]
        print(" ".join([name.ljust(12), *cells, str(cli["exit"]).rjust(8)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
