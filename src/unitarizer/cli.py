"""Command-line interface.

Subcommands
-----------
selftest    randomized geometry property suite
generate    pseudorandom bounded representation from an action groupoid spec
check       validate a representation file, print residual table
unitarize   run the circumcenter pipeline, write witness + unitary JSON
verify      check similarity of two representations via a witness

Exit codes: 0 success, 1 validation failure, 2 numerical/solver failure,
3 IO/parse failure.  Every failure prints a single line
``error:<category>: <reason>`` to stderr.  All floats are printed with 17
significant digits so reports are reproducible.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .errors import ParameterOutOfRange, ParseError, UnitarizerError
from .properties import run_geometry_suite
from .representation import (
    check_representation,
    generate_instance,
    trivial_base_rep,
    unitarize,
    verify_similarity,
)
# unitarization_to_json is not called here, but bench/tracing.py wraps it
# under this module's name.
from .serialization import (  # noqa: F401
    _representation_value,
    _unitarization_value,
    load_action_spec,
    load_json,
    load_representation,
    psi_from_json,
    representation_from_json,
    save_json,
    unitarization_to_json,
)

_EXIT_BY_CATEGORY = {"validation": 1, "numerical": 2, "io": 3}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("UNITARIZER_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParameterOutOfRange(
                f"UNITARIZER_SEED must be an integer, got {env!r}"
            ) from None
    return 0


def cmd_selftest(args) -> int:
    seed = _seed_from(args)
    report = run_geometry_suite(args.dim, args.trials, seed, tol=args.tol)
    print(f"semi-parallelogram: pass (worst violation {_fmt(report.max_semi_parallelogram_violation)})")
    print(f"congruence invariance: pass (worst drift {_fmt(report.max_congruence_drift)})")
    print(f"triangle inequality: pass (worst violation {_fmt(report.max_triangle_violation)})")
    print(f"geodesic speed: pass (worst drift {_fmt(report.max_speed_drift)})")
    print(f"selftest: {report.trials} trials at dim {report.dim}, all properties passed")
    return 0


def cmd_generate(args) -> int:
    spec = load_action_spec(args.spec)
    seed = _seed_from(args)
    if args.dim == len(spec.units):
        base = permutation_rep_of_action(spec)
    else:
        base = trivial_base_rep(spec.group, args.dim)
    rep = generate_instance(spec, base, args.cond_bound, seed)
    save_json(_representation_value(rep), args.output)
    print(
        f"wrote {args.output}: {len(rep.rho)} arrows, dim {rep.dim},"
        f" uniform bound {_fmt(rep.uniform_bound_C)}"
    )
    return 0


def permutation_rep_of_action(spec):
    """Unitary base rep permuting unit coordinates the way the group acts."""
    index = {x: i for i, x in enumerate(spec.units)}
    n = len(spec.units)
    out = {}
    for g in spec.group.elements:
        m = np.zeros((n, n), dtype=np.complex128)
        for x in spec.units:
            m[index[spec.action[(g, x)]], index[x]] = 1.0
        out[g] = m
    return out


def cmd_check(args) -> int:
    rep = load_representation(args.rep)
    violations = check_representation(rep, tol=args.tol)
    print(f"arrows {len(rep.rho)} dim {rep.dim} uniform_bound {_fmt(rep.uniform_bound_C)}")
    for (h, g), r in violations:
        print(f"violation {h} {g} {_fmt(r)}")
    if violations:
        print(f"check: {len(violations)} functoriality violations above {_fmt(args.tol)}")
        return 1
    print("check: ok")
    return 0


def cmd_unitarize(args) -> int:
    rep = load_representation(args.rep)
    trace: dict | None = {} if args.trace else None
    witness, unitary, report = unitarize(
        rep, eps=args.eps, max_iter=args.max_iter, trace=trace
    )
    # The file holds unitarization_to_json's dict; save_json writes its
    # groupoid from the index triples, so no composition list is built.
    save_json(_unitarization_value(rep, witness, unitary, report), args.output)
    if args.trace:
        try:
            with open(args.trace, "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(["unit_id", "iteration", "radius_at_iterate", "error_bound"])
                for x in sorted(trace):
                    for k, r, b in trace[x]:
                        w.writerow([x, k, _fmt(r), _fmt(b)])
        except OSError as exc:
            raise ParseError(f"cannot write {args.trace}: {exc}") from exc
    threshold = report.residual_threshold(args.eps, rep.uniform_bound_C)
    print(f"units solved: {len(report.unit_results)}")
    print(f"max unitarity residual: {_fmt(report.max_unitarity_residual)}")
    print(f"max equivariance residual: {_fmt(report.max_equivariance_residual)}")
    print(f"max certificate bound: {_fmt(report.max_certificate_bound)}")
    print(f"residual threshold: {_fmt(threshold)}")
    print(f"all converged: {report.all_converged}")
    print(f"wrote {args.output}")
    if report.all_converged and report.max_unitarity_residual <= threshold:
        return 0
    print(
        "error:numerical: solver certificates or residuals exceed target"
        " (partial output written)",
        file=sys.stderr,
    )
    return 2


def cmd_verify(args) -> int:
    rep1 = load_representation(args.rep1)
    obj2 = load_json(args.rep2)
    rep2 = representation_from_json(
        obj2, base_dir=os.path.dirname(os.path.abspath(args.rep2)), where=args.rep2
    )
    if args.witness:
        # a unitarize output file, or a bare {unit: matrix} object
        raw, where = load_json(args.witness), args.witness
        if isinstance(raw, dict) and "psi" in raw:
            raw, where = raw["psi"], f"{where}.psi"
        h = psi_from_json(raw, where)
    elif "psi" in obj2:
        h = psi_from_json(obj2["psi"], f"{args.rep2}.psi")
    else:
        eye = np.eye(rep1.dim, dtype=np.complex128)
        h = {x: eye for x in rep1.groupoid.positive_units}
    ok, residuals = verify_similarity(rep1, rep2, h, tol=args.tol)
    worst = max(residuals.values(), default=0.0)
    for g in sorted(residuals):
        print(f"residual {g} {_fmt(residuals[g])}")
    print(f"verify: max residual {_fmt(worst)} tol {_fmt(args.tol)} -> {'ok' if ok else 'FAIL'}")
    if ok:
        return 0
    print("error:validation: representations are not similar via the witness", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="unitarizer",
        description="Unitarize uniformly bounded groupoid representations"
        " via certified circumcenters in positive definite geometry.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("selftest", help="randomized geometry property suite")
    s.add_argument("--dim", type=int, default=3)
    s.add_argument("--trials", type=int, default=200)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--tol", type=float, default=1e-8)
    s.set_defaults(func=cmd_selftest)

    s = sub.add_parser("generate", help="generate a bounded representation")
    s.add_argument("spec", help="action groupoid spec (JSON)")
    s.add_argument("--dim", type=int, required=True)
    s.add_argument("--cond-bound", type=float, default=4.0, dest="cond_bound")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(func=cmd_generate)

    s = sub.add_parser("check", help="validate a representation file")
    s.add_argument("rep", help="representation (JSON)")
    s.add_argument("--tol", type=float, default=1e-9)
    s.set_defaults(func=cmd_check)

    s = sub.add_parser("unitarize", help="unitarize a representation file")
    s.add_argument("rep", help="representation (JSON)")
    s.add_argument("--eps", type=float, default=1e-7)
    s.add_argument("--max-iter", type=int, default=100_000, dest="max_iter")
    s.add_argument("--trace", default=None, help="per-iteration CSV trace path")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(func=cmd_unitarize)

    s = sub.add_parser("verify", help="verify similarity of two representations")
    s.add_argument("rep1")
    s.add_argument("rep2", help="plain representation or unitarize output")
    s.add_argument("--witness", default=None, help="witness JSON (default: psi of rep2, else identity)")
    s.add_argument("--tol", type=float, default=1e-7)
    s.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnitarizerError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return _EXIT_BY_CATEGORY.get(exc.category, 1)


if __name__ == "__main__":
    sys.exit(main())
