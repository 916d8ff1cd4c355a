"""One sha256 per benchmark workload and seed over everything the program outputs.

Usage (from anywhere)::

    python3 tools/output_digest.py [--checkout DIR]

Two checkouts that print the same lines give the same bytes on every
instance below.  Each workload and seed is hashed in a fresh child process
that imports the package from ``DIR/src`` and the workloads from
``DIR/bench`` (default: the checkout that holds this file).  The workloads
are `degenerate`, `large-groupoid` and `generic` (``WORKLOADS``), at
workload seeds 0 and 1 (``SEEDS``), and `ill-conditioned` at seed 0
(``RAW_RUNS``): 95 instances.  Per instance, in plan order, the digest
covers:

* ``unitarize``'s output as library JSON (``unitarization_to_json``, with
  sorted keys), at the workloads' eps and iteration budget;
* the ``verify_similarity`` residuals of the input and that output under
  its witness, at tolerance ``VERIFY_TOL``;
* on a CLI workload (`large-groupoid`), the input file, and the exit code,
  standard output, standard error and output file of ``unitarizer
  unitarize``, with the temporary directory's path replaced by a fixed
  name;
* on `ill-conditioned`, whose unvalidated generator output
  (``workloads.raw_instance``) goes through ``make_representation``: the
  error type and message of a rejected input, and for a validated one
  each unit's center bytes, radius, bounds, iterations, ``converged``,
  weights and ``unitarize`` trace rows.  These are the solves that stop
  at the iteration cap and by the stall rule.

It prints one line per workload and seed, ``<workload> seed <s>:
<sha256>``, and ends with one JSON line that holds every digest and
``all``, the sha256 of the lines above it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("degenerate", "large-groupoid", "generic")
SEEDS = (0, 1)
RAW_RUNS = (("ill-conditioned", 0),)
VERIFY_TOL = 1e-5  # the benchmark gate's tolerance


def digest(workload: str, seed: int) -> str:
    """The sha256 of every output of ``workload`` at ``seed``, with the package imported."""
    import workloads
    from unitarizer import cli
    from unitarizer.errors import UnitarizerError
    from unitarizer.representation import make_representation, unitarize, verify_similarity
    from unitarizer.serialization import unitarization_to_json

    wl = workloads.WORKLOADS[workload]
    h = hashlib.sha256()

    def add(piece: bytes):
        h.update(len(piece).to_bytes(8, "big") + piece)

    if wl.path == workloads.RAW:
        for case in wl.cases(seed):
            trace = {}
            try:
                rep = make_representation(*workloads.raw_instance(case))
                _, _, report = unitarize(rep, eps=workloads.EPS, max_iter=wl.max_iter, trace=trace)
            except UnitarizerError as exc:
                add(f"{type(exc).__name__}: {exc}".encode())
                continue
            for x, r in report.unit_results.items():
                add(r.center.mat.tobytes())
                add(repr((x, r.radius_at_center, r.radius_lower_bound, r.center_error_bound,
                          r.iterations, r.converged)).encode())
                add(r.weights.tobytes())
                add(repr(trace[x]).encode())
        return h.hexdigest()
    with tempfile.TemporaryDirectory() as workdir:
        for inst in workloads.set_up(wl, wl.cases(seed), workdir):
            rep = inst.rep
            witness, unitary, report = unitarize(rep, eps=workloads.EPS, max_iter=wl.max_iter)
            psi = {x: p.mat for x, p in witness.psi.items()}
            _, residuals = verify_similarity(rep, unitary, psi, VERIFY_TOL)
            out = unitarization_to_json(rep, witness, unitary, report)
            add(json.dumps(out, sort_keys=True).encode())
            add(json.dumps(residuals, sort_keys=True).encode())
            if inst.path is None:
                continue
            out_path = os.path.join(workdir, "out.json")
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(["unitarize", inst.path, "-o", out_path, "--eps",
                                 repr(workloads.EPS), "--max-iter", str(wl.max_iter)])
            add(Path(inst.path).read_bytes())
            add(str(code).encode())
            for text in (stdout.getvalue(), stderr.getvalue()):
                add(text.replace(workdir, "<workdir>").encode())
            add(Path(out_path).read_bytes() if os.path.exists(out_path) else b"")
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", type=Path, default=ROOT)
    p.add_argument("--child", help=argparse.SUPPRESS)  # the workload:seed a child process hashes
    args = p.parse_args(argv)
    checkout = args.checkout.resolve()
    if args.child:
        sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
        workload, seed = args.child.rsplit(":", 1)
        print(digest(workload, int(seed)))
        return 0
    digests, lines = {}, []
    for workload, seed in [(w, s) for w in WORKLOADS for s in SEEDS] + list(RAW_RUNS):
        child = subprocess.run(
            [sys.executable, __file__, "--child", f"{workload}:{seed}",
             "--checkout", str(checkout)],
            capture_output=True, text=True, check=True,
        )
        digests.setdefault(workload, {})[str(seed)] = child.stdout.strip()
        lines.append(f"{workload} seed {seed}: {child.stdout.strip()}")
        print(lines[-1], flush=True)
    digests["all"] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(json.dumps(digests, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
