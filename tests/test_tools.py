import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
_spec = importlib.util.spec_from_file_location("stage_times", TOOLS / "stage_times.py")
stage_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_times)
_spec = importlib.util.spec_from_file_location("output_digest", TOOLS / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "rate", "better": "higher"},
           {"name": "rare", "better": "lower"}]


def _run(pair, side, **metrics):
    return {"pair": pair, "side": side, "metrics": metrics}


def test_summarize_counts_wins_by_direction_and_drops_half_pairs():
    runs = [
        _run(0, "parent", wall_s=2.0, rate=1.0, rare=1.0),
        _run(0, "change", wall_s=1.0, rate=2.0),
        _run(1, "change", wall_s=3.0, rate=0.5),
        _run(1, "parent", wall_s=2.0, rate=1.0),
        _run(2, "parent", wall_s=4.0, rate=3.0, rare=2.0),
        _run(2, "change", wall_s=2.0, rate=4.0, rare=1.0),
        _run(3, "parent", wall_s=100.0, rate=100.0),  # no change side: dropped
    ]
    out = bench_pairs.summarize(runs, METRICS)
    assert "rare" not in out  # one whole pair only
    wall, rate = out["wall_s"], out["rate"]
    assert wall["pairs"] == rate["pairs"] == 3
    assert wall["change_better_pairs"] == 2  # lower wins: pairs 0 and 2
    assert rate["change_better_pairs"] == 2  # higher wins: pairs 0 and 2
    assert wall["parent"] == {"min": 2.0, "q1": 2.0, "median": 2.0, "q3": 3.0, "max": 4.0}
    assert wall["change"]["median"] == 2.0 and wall["median_ratio"] == 1.0
    assert wall["parent_iqr"] == 1.0
    assert rate["median_ratio"] == pytest.approx(2.0)


def test_revision_names_an_export_by_its_source(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n")
    first = bench_pairs.revision(tmp_path)
    assert first.startswith("src-sha256:")
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 2\n")
    assert bench_pairs.revision(tmp_path) not in (first, "unknown")


def test_revision_of_a_git_checkout_is_its_head(tmp_path):
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    try:
        subprocess.run([*git, "init", "-q"], check=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git is not available")
    (tmp_path / "f.txt").write_text("a\n")
    subprocess.run([*git, "add", "f.txt"], check=True)
    subprocess.run([*git, "commit", "-qm", "c"], check=True)
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True,
                          check=True).stdout.strip()
    assert bench_pairs.revision(tmp_path) == head
    (tmp_path / "f.txt").write_text("b\n")
    assert bench_pairs.revision(tmp_path) == head + "+dirty"


def test_stage_times_reports_every_stage_of_one_instance():
    row = stage_times.stage_times("S3-natural", 1)
    assert set(row) == {*stage_times.STAGES, "peak_rss_mb"}
    assert all(row[s] > 0.0 for s in stage_times.STAGES)
    assert row["peak_rss_mb"] > 0.0
    with pytest.raises(ValueError):
        stage_times.stage_times("S3-self", 1)


def test_certificate_census_runs_one_degenerate_seed(monkeypatch, capsys):
    # The tool puts src, tests and bench on the path when it is loaded.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("certificate_census",
                                                  TOOLS / "certificate_census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    runs = list(census.degenerate_runs(1))
    assert [seed for seed, _ in runs] == [0] * len(runs) and runs
    assert all(report.unit_results for _, report in runs)
    # The whole output, on one seed and the first rows of the plan: its last
    # line holds every figure of the lines above it.
    acceptance = importlib.import_module("test_acceptance")
    plan = acceptance._instance_plan()[:3]
    monkeypatch.setattr(acceptance, "_instance_plan", lambda: plan)
    monkeypatch.setattr(census, "SEEDS", 1)
    assert census.main([]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    figures = json.loads(last)
    p = figures["plan"]
    assert p["instances"] == 3 and 0 < p["certified"] <= p["units"]
    assert lines[0] == (
        f"plan: {p['certified']}/{p['units']} units certified,"
        f" {p['all_converged']}/3 instances all converged,"
        f" bound median {p['bound_median']:.3g} max {p['bound_max']:.3g}"
    )
    assert [row["seed"] for row in figures["degenerate"]] == [0] * len(runs)
    assert [row["worst_bound"] for row in figures["degenerate"]] == [
        report.max_certificate_bound for _, report in runs
    ]
    assert lines[1:-1] == [
        f"degenerate seed 0: {row['certified']}/{row['units']} units certified,"
        f" worst bound {row['worst_bound']:.3g}"
        for row in figures["degenerate"]
    ]
    assert figures["meb_calls"] > 0
    assert lines[-1] == f"degenerate: {figures['meb_calls']} _meb calls per unitarize run"


def test_output_digest_of_one_workload_seed_is_the_same_twice(monkeypatch):
    # In process, twice, on the one-instance `degenerate` workload: the
    # digest reads the deterministic outputs and nothing else.
    monkeypatch.syspath_prepend(str(TOOLS.parent / "bench"))
    first = output_digest.digest("degenerate", 0)
    assert len(first) == 64 and output_digest.digest("degenerate", 0) == first


def test_stage_times_cli_row_runs_the_written_input_in_children():
    row = stage_times.cli_row("S3-natural", 1)
    assert set(row) == {"wall_s", "peak_rss_mb", "exit"}
    assert row["wall_s"] > 0.0 and row["peak_rss_mb"] > 0.0
    assert row["exit"] in (0, 2)  # 2: a solve stopped short of its certificate
