import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import unitarizer
from unitarizer import cli, serialization
from unitarizer.cli import main, permutation_rep_of_action
from unitarizer.groupoid import ActionGroupoidSpec, cyclic_group, natural_permutation_action
from unitarizer.representation import (
    check_representation,
    generate_instance,
    trivial_base_rep,
    unitarize,
)
from unitarizer.serialization import (
    action_spec_to_json,
    load_action_spec,
    load_json,
    load_representation,
    representation_to_json,
    save_json,
    unitarization_to_json,
)

SWAP_SPEC = ActionGroupoidSpec(
    cyclic_group(2),
    ("a", "b"),
    (0.5, 0.5),
    {("r0", "a"): "a", ("r0", "b"): "b", ("r1", "a"): "b", ("r1", "b"): "a"},
)


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    save_json(action_spec_to_json(SWAP_SPEC), str(path))
    return str(path)


def test_selftest_passes(capsys):
    assert main(["selftest", "--dim", "2", "--trials", "40", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "all properties passed" in out
    assert "semi-parallelogram" in out


def test_selftest_dim_one(capsys):
    assert main(["selftest", "--dim", "1", "--trials", "40", "--seed", "3"]) == 0


def test_selftest_zero_tolerance_fails(capsys):
    # documented: strict zero tolerance trips on roundoff -> numerical exit
    rc = main(["selftest", "--dim", "3", "--trials", "200", "--seed", "1",
               "--tol", "0"])
    assert rc == 2
    assert "error:numerical:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--trials", "-1"), ("--trials", "0"), ("--dim", "0")])
def test_selftest_rejects_an_empty_run(flag, value, capsys):
    assert main(["selftest", flag, value, "--seed", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:validation: dim and trials must be")


def test_generate_writes_deterministic_file(spec_file, tmp_path, capsys):
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert main(["generate", spec_file, "--dim", "2", "--cond-bound", "4",
                 "--seed", "1", "-o", out1]) == 0
    assert main(["generate", spec_file, "--dim", "2", "--cond-bound", "4",
                 "--seed", "1", "-o", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    obj = load_json(out1)
    assert len(obj["arrows"]) == 4
    assert obj["dim"] == 2


def test_generate_cond_bound_one_is_unitary(spec_file, tmp_path):
    out = str(tmp_path / "u.json")
    assert main(["generate", spec_file, "--dim", "2", "--cond-bound", "1",
                 "--seed", "5", "-o", out]) == 0
    from unitarizer.serialization import load_representation

    rep = load_representation(out)
    for m in rep.rho.values():
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


def test_generate_then_check(spec_file, tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    main(["generate", spec_file, "--dim", "2", "--seed", "2", "-o", out])
    assert main(["check", out]) == 0
    assert "check: ok" in capsys.readouterr().out


def test_check_flags_corrupted_file(spec_file, tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    main(["generate", spec_file, "--dim", "2", "--seed", "2", "-o", out])
    obj = load_json(out)
    obj["arrows"]["r1@a"]["rows"][0][0] = [7.0, 0.0]
    bad = str(tmp_path / "bad.json")
    save_json(obj, bad)
    rc = main(["check", bad])
    assert rc == 1
    assert "error:validation:" in capsys.readouterr().err


def test_unitarize_pipeline_and_exit_zero(spec_file, tmp_path, capsys):
    rep = str(tmp_path / "rep.json")
    out = str(tmp_path / "out.json")
    trace = str(tmp_path / "trace.csv")
    main(["generate", spec_file, "--dim", "2", "--seed", "1", "-o", rep])
    rc = main(["unitarize", rep, "--eps", "1e-7", "-o", out, "--trace", trace])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "max unitarity residual" in printed
    obj = load_json(out)
    assert "psi" in obj and "report" in obj
    assert obj["report"]["all_converged"] is True
    with open(trace) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["unit_id", "iteration", "radius_at_iterate", "error_bound"]
    assert len(rows) > 2
    units_seen = {r[0] for r in rows[1:]}
    assert units_seen == {"a", "b"}


def test_output_files_are_the_public_dicts(spec_file, tmp_path, capsys):
    # The CLI writes its groupoid from the index triples; the bytes are
    # those of the public *_to_json dicts.
    spec = load_action_spec(spec_file)
    rep_path, out = str(tmp_path / "rep.json"), str(tmp_path / "out.json")
    assert main(["generate", spec_file, "--dim", "2", "--seed", "3", "-o", rep_path]) == 0
    rep = generate_instance(spec, permutation_rep_of_action(spec), 4.0, 3)  # dim = #units
    with open(rep_path) as f:
        assert f.read() == json.dumps(representation_to_json(rep), sort_keys=True) + "\n"
    assert main(["unitarize", rep_path, "-o", out]) == 0
    witness, unitary, report = unitarize(load_representation(rep_path), eps=1e-7, max_iter=100_000)
    with open(out) as f:
        assert f.read() == json.dumps(
            unitarization_to_json(rep, witness, unitary, report), sort_keys=True
        ) + "\n"


def test_unitarize_then_verify(spec_file, tmp_path, capsys):
    rep = str(tmp_path / "rep.json")
    out = str(tmp_path / "out.json")
    main(["generate", spec_file, "--dim", "2", "--seed", "1", "-o", rep])
    main(["unitarize", rep, "-o", out])
    capsys.readouterr()
    assert main(["verify", rep, out, "--tol", "1e-6"]) == 0
    assert "-> ok" in capsys.readouterr().out


def test_verify_reads_compositions_from_the_bytes(spec_file, tmp_path, capsys, monkeypatch):
    # Both representations, and a unitarize output given as the witness,
    # go through the reader; the witness's composition is never mapped.
    rep, out = str(tmp_path / "rep.json"), str(tmp_path / "out.json")
    main(["generate", spec_file, "--dim", "2", "--seed", "1", "-o", rep])
    main(["unitarize", rep, "-o", out])
    spans, mapped = [], []
    read_json, triples = serialization.read_json, serialization.CompositionSpan.triples

    def reading(path):
        obj = read_json(path)
        spans.append(isinstance(obj["groupoid"]["composition"], serialization.CompositionSpan))
        return obj

    monkeypatch.setattr(serialization, "read_json", reading)
    monkeypatch.setattr(cli, "read_json", reading)
    monkeypatch.setattr(serialization.CompositionSpan, "triples",
                        lambda span, index: mapped.append(1) or triples(span, index))
    capsys.readouterr()
    assert main(["verify", rep, out, "--witness", out, "--tol", "1e-6"]) == 0
    assert "-> ok" in capsys.readouterr().out
    assert spans == [True, True, True]
    assert mapped == [1, 1]


def test_verify_identity_witness_fails_on_twisted_pair(spec_file, tmp_path, capsys):
    rep = str(tmp_path / "rep.json")
    out = str(tmp_path / "out.json")
    eye = str(tmp_path / "eye.json")
    main(["generate", spec_file, "--dim", "2", "--seed", "1", "-o", rep])
    main(["unitarize", rep, "-o", out])
    eye_mat = {"dim": 2, "rows": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    save_json({"psi": {"a": eye_mat, "b": eye_mat}}, eye)
    rc = main(["verify", rep, out, "--witness", eye, "--tol", "1e-6"])
    assert rc == 1
    assert "error:validation:" in capsys.readouterr().err


def test_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    utf16 = tmp_path / "utf16.json"  # starts with a UTF-16 byte order mark
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    for path in (bad, utf16):
        assert main(["check", str(path)]) == 3
        assert "error:io:" in capsys.readouterr().err
        assert main(["unitarize", str(path), "-o", str(tmp_path / "x.json")]) == 3


def test_invalid_spec_exit_code(tmp_path, capsys):
    obj = action_spec_to_json(SWAP_SPEC)
    obj["space"]["mu"] = [0.5, 0.6]  # not a probability vector
    bad = str(tmp_path / "spec.json")
    save_json(obj, bad)
    rc = main(["generate", bad, "--dim", "2", "-o", str(tmp_path / "r.json")])
    assert rc == 1
    assert "error:validation:" in capsys.readouterr().err


def test_env_seed_fallback(spec_file, tmp_path, monkeypatch, capsys):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    monkeypatch.setenv("UNITARIZER_SEED", "77")
    main(["generate", spec_file, "--dim", "2", "-o", out1])
    monkeypatch.delenv("UNITARIZER_SEED")
    main(["generate", spec_file, "--dim", "2", "--seed", "77", "-o", out2])
    assert open(out1, "rb").read() == open(out2, "rb").read()
    out3 = tmp_path / "c.json"
    monkeypatch.setenv("UNITARIZER_SEED", "abc")
    capsys.readouterr()
    assert main(["generate", spec_file, "--dim", "2", "-o", str(out3)]) == 1
    assert capsys.readouterr().err == (
        "error:validation: UNITARIZER_SEED must be an integer, got 'abc'\n"
    )
    assert not out3.exists()


def test_check_at_zero_tolerance_lists_every_violation(spec_file, tmp_path, capsys):
    rep = str(tmp_path / "rep.json")
    main(["generate", spec_file, "--dim", "2", "--seed", "2", "-o", rep])
    capsys.readouterr()
    assert main(["check", rep, "--tol", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    violations = check_representation(load_representation(rep), tol=0.0)
    assert violations and len({pair for pair, _ in violations}) == len(violations)
    assert lines[1:-1] == [f"violation {h} {g} {cli._fmt(r)}" for (h, g), r in violations]
    assert lines[-1] == f"check: {len(violations)} functoriality violations above 0"


def test_unitarize_below_reach_writes_its_output_and_exits_two(spec_file, tmp_path, capsys):
    rep, out = str(tmp_path / "rep.json"), str(tmp_path / "out.json")
    main(["generate", spec_file, "--dim", "2", "--seed", "2", "-o", rep])
    capsys.readouterr()
    assert main(["unitarize", rep, "--eps", "1e-300", "-o", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:numerical: ")
    assert load_json(out)["report"]["all_converged"] is False


def test_verify_without_a_witness_uses_the_identity(spec_file, tmp_path, capsys):
    rep = str(tmp_path / "rep.json")
    main(["generate", spec_file, "--dim", "2", "--seed", "2", "-o", rep])
    capsys.readouterr()
    assert main(["verify", rep, rep]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"residual {g} 0" for g in ("r0@a", "r0@b", "r1@a", "r1@b")] + [
        f"verify: max residual 0 tol {cli._fmt(1e-7)} -> ok"
    ]


def test_generate_at_another_dim_takes_the_trivial_base(spec_file, tmp_path):
    out = str(tmp_path / "rep.json")
    assert main(["generate", spec_file, "--dim", "3", "--seed", "4", "-o", out]) == 0
    spec = load_action_spec(spec_file)
    rep = generate_instance(spec, trivial_base_rep(spec.group, 3), 4.0, 4)
    with open(out) as f:
        assert f.read() == json.dumps(representation_to_json(rep), sort_keys=True) + "\n"


def run_module(*args):
    """``python -m unitarizer.cli`` in a child that imports this same package."""
    root = os.path.dirname(os.path.dirname(unitarizer.__file__))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "unitarizer.cli", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("cond, reason", [
    ("1e20", "a drawn h is singular at cond_bound 1e+20"),
    ("inf", "cond_bound must be finite and at least 1, got inf"),
])
def test_generate_extreme_cond_bound_prints_one_error_line(tmp_path, cond, reason):
    spec = str(tmp_path / "s3.json")
    save_json(action_spec_to_json(natural_permutation_action(3)), spec)
    proc = run_module("generate", spec, "--dim", "2", "--cond-bound", cond, "--seed", "0",
                      "-o", str(tmp_path / "rep.json"))
    assert proc.returncode == 1 and proc.stderr.splitlines() == [f"error:validation: {reason}"]


def test_console_entry_point_runs():
    proc = run_module()
    assert proc.returncode == 2  # argparse usage error for missing subcommand


def test_cli_module_selftest_subprocess():
    proc = run_module("selftest", "--dim", "2", "--trials", "20", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert "all properties passed" in proc.stdout


def test_package_and_cli_import_without_scipy():
    # every distance goes through the numpy chart kernel; scipy.linalg cost
    # a third of a second and 28 MB at every process start
    root = os.path.dirname(os.path.dirname(unitarizer.__file__))
    probe = (
        "import sys, unitarizer, unitarizer.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_generating_and_unitarizing_do_not_import_numpy_ma(tmp_path):
    # numpy's unique imports numpy.ma (about 15 ms and 1.2 MB per process);
    # the group and groupoid checks use boolean masks instead
    root = os.path.dirname(os.path.dirname(unitarizer.__file__))
    rep = str(tmp_path / "rep.json")
    probe = (
        "import sys\n"
        "from unitarizer import cli, groupoid, representation as rp, serialization\n"
        "spec = groupoid.natural_permutation_action(3)\n"
        "rep = rp.generate_instance(spec, rp.trivial_base_rep(spec.group, 2), 4.0, 0)\n"
        "rp.unitarize(rep)\n"
        f"serialization.save_json(serialization.representation_to_json(rep), {rep!r})\n"
        "assert 'numpy.ma' not in sys.modules\n"
        f"cli.main(['unitarize', {rep!r}, '-o', {str(tmp_path / 'out.json')!r}])\n"
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


def _malformed(case, tmp_path, rep, out, spec):
    """Write the malformed input of ``case``; return the CLI arguments that read it.

    The ``nodir`` cases write into a directory that does not exist.
    """
    nodir = str(tmp_path / "nodir")
    if case == "nodir-output":
        return ["unitarize", rep, "-o", os.path.join(nodir, "out.json")]
    if case == "nodir-trace":
        return ["unitarize", rep, "-o", out, "--trace", os.path.join(nodir, "t.csv")]
    if case == "nodir-generate":
        return ["generate", spec, "--dim", "2", "-o", os.path.join(nodir, "rep.json")]
    if case.startswith("action-"):  # --dim 2 is the unit count: the permutation base
        obj = load_json(spec)
        if case == "action-missing":
            del obj["action"]["r1"]["b"]
        else:  # action-unknown: a cell maps to a unit the spec does not list
            obj["action"]["r1"]["b"] = "x9"
        path = str(tmp_path / "bad_spec.json")
        save_json(obj, path)
        return ["generate", path, "--dim", "2", "-o", str(tmp_path / "gen.json")]
    obj = load_json(rep)
    if case == "witness-list":
        path = str(tmp_path / "w.json")
        save_json([1, 2], path)
        return ["verify", rep, out, "--witness", path]
    if case == "witness-matrix":  # a unitarize output whose psi['a'] has "dim": true
        unit = load_json(out)
        unit["psi"]["a"]["dim"] = True
        path = str(tmp_path / "w.json")
        save_json(unit, path)
        return ["verify", rep, out, "--witness", path]
    if case == "psi-list":
        unit = load_json(out)
        unit["psi"] = [1, 2]
        save_json(unit, out)
        return ["verify", rep, out]
    if case == "matrix-dim-true":
        for m in obj["arrows"].values():
            m["dim"], m["rows"] = True, [[[1.0, 0.0]]]
    else:  # rep-dim-true: 2x2 matrices under "dim": true
        obj["dim"] = True
    save_json(obj, rep)
    return ["check", rep]


@pytest.mark.parametrize("case, reason", [
    ("witness-list", "w.json: expected an object"),
    ("witness-matrix", "w.json.psi['a']: dim must be a positive int"),
    ("psi-list", "out.json.psi: expected an object"),
    ("matrix-dim-true", "dim must be a positive int"),
    ("rep-dim-true", "dim: must be a positive int"),
    ("nodir-output", "error:io: cannot write"),
    ("nodir-trace", "error:io: cannot write"),
    ("nodir-generate", "error:io: cannot write"),
    ("action-missing", "error:validation: action incomplete at ('r1', 'b')"),
    ("action-unknown", "error:validation: action incomplete at ('r1', 'b')"),
])
def test_malformed_input_ends_in_one_error_line(spec_file, tmp_path, case, reason):
    rep = str(tmp_path / "rep.json")
    out = str(tmp_path / "out.json")
    main(["generate", spec_file, "--dim", "2", "--seed", "1", "-o", rep])
    main(["unitarize", rep, "-o", out])
    proc = run_module(*_malformed(case, tmp_path, rep, out, spec_file))
    assert proc.returncode in (1, 2, 3), proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert reason in lines[0]


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
@pytest.mark.parametrize("command", ["check", "selftest", "verify"])
def test_a_vacuous_tolerance_ends_in_one_error_line(spec_file, tmp_path, capsys, command, tol):
    rep = str(tmp_path / "rep.json")
    assert main(["generate", spec_file, "--dim", "2", "--seed", "1", "-o", rep]) == 0
    args = {"check": [rep], "selftest": ["--trials", "1"], "verify": [rep, rep]}[command]
    capsys.readouterr()
    assert main([command, *args, "--tol", tol]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error:validation: tol must be finite and nonnegative, got {float(tol)}"
    ]


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_generate_rejects_an_empty_dimension_in_one_error_line(spec_file, tmp_path, capsys, dim):
    out = str(tmp_path / "rep.json")
    assert main(["generate", spec_file, "--dim", dim, "--seed", "0", "-o", out]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error:validation: dim must be at least 1, got {dim}"
    ]
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["selftest", "generate"])
@pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-5")],
                         ids=["flag", "env"])
def test_a_negative_seed_ends_in_one_error_line(spec_file, tmp_path, monkeypatch, capsys,
                                                command, flag, env):
    if env is None:
        monkeypatch.delenv("UNITARIZER_SEED", raising=False)
    else:
        monkeypatch.setenv("UNITARIZER_SEED", env)
    out = tmp_path / "rep.json"
    args = {"selftest": ["--trials", "1"],
            "generate": [spec_file, "--dim", "2", "-o", str(out)]}[command]
    assert main([command, *args, *flag]) == 1
    seed = flag[1] if flag else env
    assert capsys.readouterr().err.splitlines() == [
        f"error:validation: seed must be a nonnegative integer, got {seed}"
    ]
    assert not out.exists()


@pytest.mark.parametrize("spliced", [False, True], ids=["parsed", "spliced"])
@pytest.mark.parametrize("referenced", [False, True], ids=["direct", "by-reference"])
def test_deeply_nested_json_ends_in_one_io_line(tmp_path, capsys, spliced, referenced):
    # Far past the interpreter's recursion limit.  With a composition in
    # the layout json.dumps writes, the reader first parses the text around
    # it, and then the whole file.
    deep = "[" * 100_000 + "]" * 100_000
    head = '{"composition": [["a", "a", "a"]], "deep": ' if spliced else '{"deep": '
    data = (head + deep + "}").encode()
    assert (serialization.CompositionSpan.find(data) is not None) == spliced
    path = tmp_path / "deep.json"
    path.write_bytes(data)
    if referenced:
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({"groupoid": {"file": "deep.json"}, "dim": 1, "arrows": {}}))
    assert main(["check", str(path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error:io: {tmp_path / 'deep.json'} is not valid JSON")
