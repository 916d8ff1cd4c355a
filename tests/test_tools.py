import importlib.util
import pathlib
import subprocess

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

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
