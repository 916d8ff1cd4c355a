"""Self-checks of the benchmark harness on small stand-in plans.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from argparse import Namespace

import numpy as np
import pytest

import ops
import run
import tracing
import workloads
from unitarizer import representation
from unitarizer.errors import UnitarizerError
from unitarizer.groupoid import natural_permutation_action, symmetric_group
from unitarizer.representation import generate_instance, permutation_base_rep, unitarize

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# The per-layer table every workload reports in full (bench/out/*.json),
# whether or not BENCHMARK.json lists the entry.
LAYER_TABLE = {
    "circumcenter.solve_s", "circumcenter.ms_per_iter", "circumcenter.solve_p50_ms",
    "circumcenter.solve_max_ms", "circumcenter.solves", "circumcenter.iterations",
    "circumcenter.solves_at_cap", "circumcenter.certified_frac", "circumcenter.cert_bound_p50",
    "circumcenter.cert_bound_max", "circumcenter.point_set_s",
    "circumcenter.point_set_rejects", "geometry.distance_calls", "geometry.distance_s",
    "groupoid.build_s", "groupoid.load_s", "groupoid.composable_pairs",
    "representation.validate_input_s", "representation.validate_output_s",
    "representation.gram_s", "representation.gram_points",
    "representation.unitarize_self_s", "representation.verify_s",
    "serialization.parse_s", "serialization.encode_s", "serialization.write_s",
    "serialization.bytes_in", "serialization.bytes_out", "cli.self_s", "trace.overhead_s",
}
END_TO_END_TABLE = {
    "wall_s", "instance_p50_s", "instance_tail_s", "setup_s", "failed_frac",
    "unit_certified_frac", "instance_certified_frac", "peak_rss_mb",
}


def small(wl):
    """``wl`` with its plan cut to two quick instances on the same path."""
    s3 = symmetric_group(3)
    plan = workloads._tiny_plan() + (
        ("S3-natural", natural_permutation_action(3), permutation_base_rep(s3), 2.0, 0),
    )
    return dataclasses.replace(wl, plan=plan)


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_output_is_identical_and_names_are_restored(name, workdir):
    wl = small(workloads.WORKLOADS[name])
    instances = workloads.set_up(wl, wl.cases(0), workdir)
    originals = [getattr(m, a) for m, a, _ in tracing.WRAPPED]
    tracer = tracing.Tracer()
    untraced, traced = run.run_paired_pass(wl, instances, workdir, tracer)
    assert [getattr(m, a) for m, a, _ in tracing.WRAPPED] == originals
    assert tracing.unrestored_names() == []
    for plain, spanned in zip(untraced, traced):
        assert plain.failure is None and spanned.failure is None
        assert plain.output and plain.output == spanned.output
    names = {s.name for s in tracer.spans}
    assert {"bench.instance", "circumcenter.solve", "geometry.distance"} <= names


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_for_every_workload(name, trace, workdir):
    wl = small(workloads.WORKLOADS[name])
    args = Namespace(seed=0, seconds=0.0, trace=trace)
    spans_csv = f"{workdir}/spans.csv"
    metrics, extra = run.measure(wl, wl.cases(0), args, workdir, 0.1, spans_csv)
    key = "per_layer" if trace else "end_to_end"
    listed = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    table = LAYER_TABLE if trace else END_TO_END_TABLE
    assert set(metrics) == table
    assert set(listed) == table if trace else set(listed) <= table
    for metric, unit in listed.items():
        assert metrics[metric][1] == unit
    assert extra["correct"] and not extra["failures"]
    if trace:
        assert extra["identical_output"] and extra["unrestored"] == []


def test_seed_zero_is_the_plan_and_other_seeds_change_basis(workdir):
    wl = small(workloads.WORKLOADS["generic"])
    plan = workloads.set_up(wl, wl.cases(0), workdir)
    again = workloads.set_up(wl, wl.cases(3), workdir)
    other = workloads.set_up(wl, wl.cases(4), workdir)
    for p, a, b, row in zip(plan, again, other, wl.plan):
        family, spec, base, cond, seed = row
        drawn = generate_instance(spec, base, cond, seed)
        assert all(np.array_equal(p.rep.rho[g], m) for g, m in drawn.rho.items())
        g = max(drawn.rho, key=lambda g: np.abs(drawn.rho[g]).max())
        assert not np.allclose(a.rep.rho[g], p.rep.rho[g])
        assert not np.allclose(a.rep.rho[g], b.rep.rho[g])
        assert abs(a.rep.uniform_bound_C - p.rep.uniform_bound_C) <= 1e-12 * p.rep.uniform_bound_C
    repeat = workloads.set_up(wl, wl.cases(3), workdir)
    for a, r in zip(again, repeat):
        assert all(np.array_equal(a.rep.rho[g], m) for g, m in r.rep.rho.items())


def test_raw_instance_is_the_generator_output_without_validation():
    cases = workloads.WORKLOADS["ill-conditioned"].cases(0)
    validate = representation.make_representation
    G, dim, rho = workloads.raw_instance(cases[0])
    assert representation.make_representation is validate
    rep = generate_instance(cases[0].spec, cases[0].base, cases[0].cond, cases[0].seed)
    assert dim == rep.dim and set(rho) == set(rep.rho)
    for g in rho:
        assert np.array_equal(rho[g], rep.rho[g])
    rejected = next(c for c in cases if c.cond >= 1e8)
    with pytest.raises(UnitarizerError):
        generate_instance(rejected.spec, rejected.base, rejected.cond, rejected.seed)
    G, dim, rho = workloads.raw_instance(rejected)
    assert len(rho) == len(G.arrows)
    assert representation.make_representation is validate


def test_gate_catches_wrong_outputs():
    case = small(workloads.WORKLOADS["generic"]).cases(0)[1]
    rep = generate_instance(case.spec, case.base, case.cond, case.seed)
    witness, unitary, report = unitarize(rep)
    certs = {
        x: (r.radius_at_center, r.radius_lower_bound, witness.sigma[x])
        for x, r in report.unit_results.items()
    }
    assert ops.gate(rep, unitary.rho, True, certs) is None
    assert "verify_similarity" in ops.gate(rep, unitary.rho, False, certs)
    bent = dict(unitary.rho)
    g = next(iter(bent))
    bent[g] = 1.001 * bent[g]
    assert "unitarity residual" in ops.gate(rep, bent, True, certs)
    x = next(iter(certs))
    radius, lower, center = certs[x]
    assert "lower bound" in ops.gate(rep, unitary.rho, True, {**certs, x: (lower - 1e-3, lower, center)})
    shrunk = {**certs, x: (0.5 * radius, 0.0, center)}
    assert "outside radius" in ops.gate(rep, unitary.rho, True, shrunk)


def test_tail_rank_leaves_ten_samples_beyond():
    assert run.tail_index(41) == 30
    assert run.tail_index(11) == 0
    assert run.tail_index(3) == 2


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(run.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "generic", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
