"""One instance through the program, timed, then the correctness gate.

The gate runs outside the timed region.  It is the round-trip and
certificate audit of the acceptance suite (criteria 3 and 4), applied
to every instance the benchmark runs:

* the unitarity residual of every positive-mass arrow, recomputed from
  the returned ``u``, is at most ``GATE_TOL``;
* ``verify_similarity(rep, unitary, psi, tol=GATE_TOL)`` passes;
* every certificate is sound: ``radius_lower_bound <= radius_at_center
  + 1e-12`` and every Gram point lies within ``radius_at_center + 1e-9``
  of the center by ``geometry.distance``.

A raised ``UnitarizerError`` or a failed gate is a failed operation,
recorded with its category (validation, numerical, io or gate).
"""

from __future__ import annotations

import gc
import io
import json
import os
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from unitarizer import cli, representation
from unitarizer.circumcenter import radius_lower_bound
from unitarizer.errors import UnitarizerError
from unitarizer.geometry import distance
from unitarizer.linalg import spd
from unitarizer.representation import Representation, gram_set, verify_similarity
from unitarizer.serialization import (
    groupoid_to_json,
    matrix_from_json,
    unitarization_to_json,
)

from workloads import CLI, EPS, RAW

GATE_TOL = 1e-5
LOWER_BOUND_SLACK = 1e-12
ENCLOSING_SLACK = 1e-9

_CLI_ERROR = re.compile(r"^error:(\w+): ", re.MULTILINE)


@dataclass
class Outcome:
    seconds: float
    units: int = 0
    units_certified: int = 0
    certified: bool = False  # all units converged and residuals within threshold
    failure: tuple | None = None  # (category, reason)
    output: bytes | None = None  # unitarization JSON, for the trace identity check


def run_instance(wl, inst, workdir: str, keep_output: bool, quiet) -> Outcome:
    """Time one instance of ``wl``, then gate its output with tracing ``quiet``.

    Garbage left by the previous instance and its gate is collected first,
    so that it is not collected on this instance's time.
    """
    gc.collect()
    if wl.path == CLI:
        return _run_cli(wl, inst, workdir, keep_output, quiet)
    t0 = time.perf_counter()
    try:
        if wl.path == RAW:
            rep = representation.make_representation(*inst.raw)
        else:
            rep = inst.rep
        witness, unitary, report = representation.unitarize(
            rep, eps=EPS, max_iter=wl.max_iter
        )
        psi = {x: p.mat for x, p in witness.psi.items()}
        similar, _ = representation.verify_similarity(rep, unitary, psi, tol=GATE_TOL)
    except UnitarizerError as exc:
        return Outcome(time.perf_counter() - t0, failure=(exc.category, str(exc)))
    out = Outcome(time.perf_counter() - t0)

    with quiet():
        results = report.unit_results
        out.units = len(results)
        out.units_certified = sum(r.converged for r in results.values())
        threshold = report.residual_threshold(EPS, rep.uniform_bound_C)
        out.certified = report.all_converged and report.max_unitarity_residual <= threshold
        certs = {
            x: (r.radius_at_center, r.radius_lower_bound, witness.sigma[x])
            for x, r in results.items()
        }
        reason = gate(rep, unitary.rho, similar, certs)
        if reason:
            out.failure = ("gate", reason)
        if keep_output:
            obj = unitarization_to_json(rep, witness, unitary, report)
            out.output = json.dumps(obj, sort_keys=True).encode()
    return out


def _run_cli(wl, inst, workdir: str, keep_output: bool, quiet) -> Outcome:
    out_path = os.path.join(workdir, "out.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(["unitarize", inst.path, "-o", out_path,
                         "--eps", repr(EPS), "--max-iter", str(wl.max_iter)])
    out = Outcome(time.perf_counter() - t0)
    message = stderr.getvalue()
    # Exit 2 with "partial output written" is an uncertified but complete run.
    if code != 0 and "partial output written" not in message:
        match = _CLI_ERROR.search(message)
        category = match.group(1) if match else "io"
        out.failure = (category, message.strip() or f"exit code {code}")
        return out

    with quiet():
        with open(out_path, "rb") as f:
            raw = f.read()
        obj = json.loads(raw)
        rep = inst.rep
        out.certified = code == 0
        per_unit = obj["report"]["per_unit"]
        out.units = len(per_unit)
        out.units_certified = sum(bool(u["converged"]) for u in per_unit.values())
        if obj["groupoid"] != groupoid_to_json(rep.groupoid) or obj["dim"] != rep.dim:
            out.failure = ("gate", "output groupoid or dimension differs from the input")
            return out
        u = {g: matrix_from_json(m) for g, m in obj["arrows"].items()}
        unitary = Representation(rep.groupoid, rep.dim, u, 0.0)
        psi = {x: matrix_from_json(m) for x, m in obj["psi"].items()}
        similar, _ = verify_similarity(rep, unitary, psi, tol=GATE_TOL)
        certs = {}
        for x, unit in per_unit.items():
            lower = radius_lower_bound(gram_set(rep, x))
            certs[x] = (unit["radius"], lower, spd(matrix_from_json(obj["sigma"][x])))
        reason = gate(rep, u, similar, certs)
        if reason:
            out.failure = ("gate", reason)
        if keep_output:
            out.output = raw
    return out


def gate(rep, u: dict, similar: bool, certs: dict) -> str | None:
    """First violated correctness condition, or None.

    ``certs`` maps each positive-mass unit to ``(radius_at_center,
    radius_lower_bound, center)``.
    """
    G = rep.groupoid
    positive = set(G.positive_units)
    eye = np.eye(rep.dim)
    for a in G.arrows:
        if a.src in positive and a.tgt in positive:
            m = u[a.id]
            resid = float(np.sqrt(np.sum(np.abs(m.conj().T @ m - eye) ** 2) / rep.dim))
            if not resid <= GATE_TOL:
                return f"unitarity residual {resid:.3e} at arrow {a.id}"
    if not similar:
        return f"verify_similarity fails at tol {GATE_TOL:g}"
    if set(certs) != positive:
        return "certificates do not cover the positive-mass units"
    for x, (radius, lower, center) in sorted(certs.items()):
        if not lower <= radius + LOWER_BOUND_SLACK:
            return f"unit {x}: lower bound {lower!r} exceeds radius {radius!r}"
        for k, p in enumerate(gram_set(rep, x).points):
            d = distance(center, p)
            if not d <= radius + ENCLOSING_SLACK:
                return f"unit {x}: Gram point {k} at {d!r} lies outside radius {radius!r}"
    return None
