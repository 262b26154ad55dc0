import hashlib
import json
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from tensorcrit import (
    DenseTensor,
    SolverConfig,
    random_tensor,
    symmetric_eigenpairs,
    symmetrize,
    write_tensor_file,
)
from tensorcrit import solver
from tensorcrit.cli import build_parser, main


def write(tmp_path, name, array):
    path = tmp_path / name
    write_tensor_file(DenseTensor(array), path)
    return str(path)


@pytest.fixture
def cubic_file(tmp_path):
    data = np.zeros((2, 2, 2))
    data[0, 0, 0] = 1.0
    data[1, 1, 1] = 1.0
    return write(tmp_path, "cubic.json", data)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_timings(text):
    doc = json.loads(text)
    doc.pop("timings", None)
    return json.dumps(doc, sort_keys=True)


# --- gen --------------------------------------------------------------------


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen", "--shape", "2,2,2", "--seed", "7", "-o", str(a)]) == 0
    assert main(["gen", "--shape", "2,2,2", "--seed", "7", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_symmetric_needs_square(capsys):
    code, _, err = run(capsys, ["gen", "--shape", "2,3", "--symmetric"])
    assert code == 2
    assert "square" in err


def test_gen_into_a_missing_directory_is_input_error(tmp_path, capsys):
    # open() raised FileNotFoundError out of main, with a traceback
    target = tmp_path / "missing" / "x.json"
    code, _, err = run(capsys, ["gen", "--shape", "2,2", "-o", str(target)])
    assert code == 2
    assert err.startswith("error: cannot write") and not target.exists()


def test_gen_unparsable_shape_is_input_error(capsys):
    code, out, err = run(capsys, ["gen", "--shape", "3,x"])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse shape '3,x'")


def test_gen_to_stdout_writes_the_file_bytes(tmp_path, capsys):
    target = tmp_path / "t.json"
    argv = ["gen", "--shape", "2,3", "--seed", "4"]
    assert main(argv + ["-o", str(target)]) == 0
    code, out, _ = run(capsys, argv)
    assert code == 0 and out == target.read_text()


def test_gen_symmetric_output_is_symmetric(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["gen", "--shape", "3,3,3", "--symmetric", "--seed", "1", "-o", str(out)]) == 0
    from tensorcrit import max_asymmetry, read_tensor_file

    assert max_asymmetry(read_tensor_file(out)) == 0.0


# --- eval -------------------------------------------------------------------


def test_eval_identity(tmp_path, capsys):
    t = write(tmp_path, "eye.json", np.eye(2))
    e1 = write(tmp_path, "e1.json", np.array([1.0, 0.0]))
    code, out, _ = run(capsys, ["eval", t, e1, e1])
    assert code == 0
    assert out.strip() == "1.0000000000000000e+00"


def test_eval_all_ones(tmp_path, capsys):
    t = write(tmp_path, "ones.json", np.ones((2, 2, 2)))
    v = write(tmp_path, "v.json", np.array([1.0, 1.0]))
    code, out, _ = run(capsys, ["eval", t, v, v, v])
    assert code == 0
    assert float(out) == 8.0


def test_eval_wrong_length_vector(tmp_path, capsys):
    t = write(tmp_path, "eye.json", np.eye(2))
    v = write(tmp_path, "v3.json", np.array([1.0, 0.0, 0.0]))
    code, _, err = run(capsys, ["eval", t, v, v])
    assert code == 2


def test_eval_matrix_as_vector_is_input_error(tmp_path, capsys):
    t = write(tmp_path, "eye.json", np.eye(2))
    code, out, err = run(capsys, ["eval", t, t, t])
    assert (code, out) == (2, "")
    assert err == f"error: {t} is not a vector (order-1 tensor)\n"


# --- eig --------------------------------------------------------------------


def test_eig_cubic_audit(cubic_file, capsys):
    code, out, _ = run(capsys, ["eig", cubic_file, "--symmetric", "--audit", "--restarts", "40"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert len(doc["pairs"]) == 6
    assert doc["morse"]["consistent"] is True
    assert doc["morse"]["counts"] == {"0": 3, "1": 3}
    values = sorted(round(p["value"], 9) for p in doc["pairs"])
    r = round(2 ** -0.5, 9)
    assert values == [-1.0, -1.0, -r, r, 1.0, 1.0]


def test_eig_identity_degenerate(tmp_path, capsys):
    t = write(tmp_path, "eye.json", np.eye(2))
    code, _, err = run(capsys, ["eig", t, "--symmetric", "--restarts", "30"])
    assert code == 4
    assert "degenerate" in err


def test_degenerate_diagnostic_names_the_rule(tmp_path, capsys):
    eye = write(tmp_path, "eye.json", np.eye(2))
    code, out, err = run(capsys, ["eig", eye, "--symmetric", "--restarts", "30"])
    assert (code, out) == (4, "")
    assert err == (
        "degenerate: count cap: 60 stationary points survive deduplication, more than the 4 of the "
        "Cartwright-Sturmfels count (antipodes included); either the set is not finite or Newton "
        "split a multiple root\n"
    )
    cubic = np.zeros((2, 2, 2))
    cubic[0, 0, 0] = cubic[1, 1, 1] = 1.0
    t = write(tmp_path, "cubic.json", cubic)
    code, out, err = run(capsys, ["eig", t, "--mode", "1", "--p", "3", "--restarts", "30"])
    assert (code, out) == (4, "")
    assert re.match(
        r"degenerate: continuum witness: the stationary point with critical value \S+ "
        r"continues to another at distance 0\.001 ",
        err,
    )


@pytest.mark.parametrize("restarts", [["--restarts", "24"], []])
def test_diagonal_p3_continuum_is_one_diagnostic_line(tmp_path, capsys, restarts):
    # the 3x3x3 diagonal's mode-1 pairs under the 3-norm form a continuum; at the default
    # 200 restarts dedupe gets hundreds of points on it, and Newton retires the rows stuck there
    data = np.zeros((3, 3, 3))
    data[np.arange(3), np.arange(3), np.arange(3)] = 1.0
    t = write(tmp_path, "diag.json", data)
    assert run(capsys, ["eig", t, "--mode", "1", "--p", "3"] + restarts) == (
        4,
        "",
        "degenerate: continuum witness: the stationary point with critical value -1 continues to "
        "another at distance 0.001 with the same value; the critical set is positive-dimensional\n",
    )


def test_eig_matrix_values(tmp_path, capsys):
    t = write(tmp_path, "diag.json", np.diag([1.0, 2.0]))
    code, out, _ = run(capsys, ["eig", t, "--symmetric", "--restarts", "24"])
    assert code == 0
    doc = json.loads(out)
    assert sorted(round(p["value"], 9) for p in doc["pairs"]) == [1.0, 1.0, 2.0, 2.0]


def test_eig_audit_with_mode_is_usage_error(cubic_file):
    with pytest.raises(SystemExit) as exc:
        main(["eig", cubic_file, "--mode", "1", "--audit"])
    assert exc.value.code == 2


def test_eig_audit_at_p_other_than_two_is_usage_error(cubic_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eig", cubic_file, "--symmetric", "--audit", "--p", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tensorcrit ")
    assert "tensorcrit: error: --audit requires --p 2 " in err


def test_eig_missing_file_is_input_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, ["eig", missing, "--symmetric"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {missing}: ")


def test_report_digests_the_bytes_it_parsed(cubic_file, capsys, monkeypatch):
    # the digest used to re-read the file after the solve, so it named bytes never parsed
    original = Path(cubic_file).read_bytes()
    solve = solver.generalized_eigenpairs

    def overwriting_solve(*args, **kwargs):
        Path(cubic_file).write_text('{"shape": [2, 2], "entries": [1, 0, 0, 1]}\n')
        return solve(*args, **kwargs)

    monkeypatch.setattr(solver, "generalized_eigenpairs", overwriting_solve)
    code, out, _ = run(capsys, ["eig", cubic_file, "--symmetric", "--restarts", "4"])
    assert code == 0 and Path(cubic_file).read_bytes() != original
    report = json.loads(out)
    assert report["input"]["sha256"] == hashlib.sha256(original).hexdigest()
    assert report["input"]["shape"] == [2, 2, 2]


def test_eig_audit_of_degenerate_pairs_exits_4(tmp_path, capsys):
    # x1^2 x2 + x1 x3^2: the solve returns pairs, some with nondegenerate=False.  Newton splits
    # its multiple root (0, +-1, 0), so more effort raises count cap instead (from 16 restarts
    # at seed 0)
    data = np.zeros((3, 3, 3))
    data[0, 0, 1] = data[0, 2, 2] = 1.0
    T = symmetrize(DenseTensor(data))
    pairs = symmetric_eigenpairs(T, SolverConfig(restarts=10, seed=0))
    assert len(pairs) == 14 and sum(not pt.nondegenerate for pt in pairs) == 6
    t = write(tmp_path, "deg.json", T.data)
    argv = ["eig", t, "--symmetric", "--audit", "--restarts", "10", "--seed", "0"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (4, "")
    assert err.startswith("degenerate: audit needs classified pairs")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", [["eig", "--symmetric"], ["svd"]])
def test_nonfinite_tolerance_is_usage_error(cubic_file, capsys, command, value):
    argv = [command[0], cubic_file, *command[1:], "--restarts", "4", "--tolerance", value]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: gradient_tolerance must be a finite real number > 0, got {value}\n"


def test_debug_logging_leaves_report_unchanged(tmp_path, capsys, caplog):
    t = write(tmp_path, "r.json", random_tensor((3, 3, 3), 5).data)
    for argv in (["svd", t, "--restarts", "24"], ["eig", t, "--mode", "2", "--restarts", "24"]):
        _, quiet, _ = run(capsys, argv)
        with caplog.at_level("DEBUG", logger="tensorcrit"):
            _, loud, _ = run(capsys, argv)
        assert any("damped Newton" in r.getMessage() for r in caplog.records)
        caplog.clear()
        assert strip_timings(loud) == strip_timings(quiet)


def test_eig_rejects_rectangular(tmp_path, capsys):
    t = write(tmp_path, "rect.json", np.ones((2, 3)))
    code, _, _ = run(capsys, ["eig", t, "--symmetric"])
    assert code == 2


def test_eig_audit_violation_exit_code(tmp_path, capsys):
    T = random_tensor((3, 3, 3), 70005, symmetric=True)
    path = tmp_path / "t.json"
    write_tensor_file(T, path)
    code, out, _ = run(
        capsys,
        ["eig", str(path), "--symmetric", "--audit", "--restarts", "1", "--seed", "0"],
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["morse"]["consistent"] is False


def test_eig_mode_run(tmp_path, capsys):
    t = write(tmp_path, "tri.json", np.array([[2.0, 1.0], [0.0, 3.0]]))
    code, out, _ = run(capsys, ["eig", t, "--mode", "2", "--restarts", "24"])
    assert code == 0
    doc = json.loads(out)
    assert sorted(set(round(p["value"], 8) for p in doc["pairs"])) == [2.0, 3.0]
    assert all(p["mode"] == 2 for p in doc["pairs"])


def test_eig_mode_zero_is_usage_error(cubic_file):
    # mode 0 names the symmetric problem in the library; the CLI spells it --symmetric
    for mode in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["eig", cubic_file, "--mode", mode])
        assert exc.value.code == 2


def test_eig_mode_p3_run(tmp_path, capsys):
    t = write(tmp_path, "a.json", random_tensor((3, 3, 3), 6).data)
    code, out, _ = run(capsys, ["eig", t, "--mode", "1", "--p", "3", "--restarts", "24"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["p"] == 3.0
    assert doc["mode"] == 1 and doc["pairs"]
    for p in doc["pairs"]:
        assert p["mode"] == 1 and p["index"] is None
        assert np.sum(np.abs(p["vector"]) ** 3) == pytest.approx(1.0, abs=1e-12)


@pytest.fixture
def sym_file(tmp_path):
    return write(tmp_path, "sym.json", random_tensor((3, 3, 3), 5, symmetric=True).data)


def test_eig_symmetric_p_run_reports_mode_zero(sym_file, capsys):
    code, out, _ = run(capsys, ["eig", sym_file, "--symmetric", "--p", "1.5", "--restarts", "24"])
    assert code == 0
    doc = json.loads(out)
    assert doc["symmetric"] is True and doc["mode"] == 0 and doc["pairs"]
    for p in doc["pairs"]:
        assert p["mode"] == 0 and p["index"] is None
        assert np.sum(np.abs(p["vector"]) ** 1.5) == pytest.approx(1.0, abs=1e-12)


def test_eig_symmetric_p_rejects_asymmetric(tmp_path, capsys):
    t = write(tmp_path, "a.json", random_tensor((3, 3, 3), 6).data)
    code, out, err = run(capsys, ["eig", t, "--symmetric", "--p", "1.5"])
    assert code == 2
    assert out == "" and "symmetric" in err


# --- svd --------------------------------------------------------------------


def test_svd_diag_matrix(tmp_path, capsys):
    t = write(tmp_path, "d.json", np.diag([3.0, 1.0]))
    code, out, _ = run(capsys, ["svd", t, "--restarts", "24"])
    assert code == 0
    doc = json.loads(out)
    sigmas = sorted(set(round(t["sigma"], 9) for t in doc["tuples"]))
    assert sigmas == [1.0, 3.0]


def test_svd_rank_one_flags_zero_sigma(tmp_path, capsys):
    t = write(tmp_path, "ones.json", np.ones((2, 2)))
    code, out, _ = run(capsys, ["svd", t, "--restarts", "24"])
    assert code == 0
    doc = json.loads(out)
    flags = {round(t["sigma"], 6): t["degenerate"] for t in doc["tuples"]}
    assert flags[2.0] is False
    assert flags[0.0] is True


def test_svd_order_three_all_ones(tmp_path, capsys):
    # besides the top tuple (sigma = 2^1.5) the rank-one tensor has a circle of
    # sigma = 0 tuples (u, v orthogonal to (1, 1), any w): degenerate at any effort
    t = write(tmp_path, "ones3.json", np.ones((2, 2, 2)))
    code, out, err = run(capsys, ["svd", t, "--restarts", "24"])
    assert code == 4
    assert out == ""
    assert err.startswith(
        "degenerate: continuum witness: the singular tuple with critical value 0 "
    )


# --- check ------------------------------------------------------------------


def test_check_symmetric_tensor(tmp_path, capsys):
    T = random_tensor((3, 3, 3), 3, symmetric=True)
    path = tmp_path / "t.json"
    write_tensor_file(T, path)
    code, out, _ = run(capsys, ["check", str(path)])
    assert code == 0
    assert "euler-homogeneity: pass" in out
    assert "FAIL" not in out


def test_check_asymmetric_skips_euler(tmp_path, capsys):
    t = write(tmp_path, "a.json", np.array([[0.0, 1.0], [0.0, 0.0]]))
    code, out, _ = run(capsys, ["check", t])
    assert code == 0
    assert "euler-homogeneity: skipped" in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_overflowing_entries_fail(tmp_path, capsys):
    t = write(tmp_path, "big.json", np.full((2, 2, 2), 1e300))
    code, out, _ = run(capsys, ["check", t])
    assert code == 1
    assert "FAIL" in out


CHECK_LINES = [
    "gradient-finite-difference: {}",
    "contraction-identity: pass",
    "euler-homogeneity: {}",
    "p-norm-gradient[p=1.5]: pass",
    "p-norm-gradient[p=2.0]: pass",
    "p-norm-gradient[p=3.0]: pass",
]


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize(
    "array, gradient, euler, exit_code",
    [
        pytest.param(random_tensor((3, 3, 3), 3, symmetric=True).data, "pass", "pass", 0, id="sym"),
        pytest.param(
            random_tensor((2, 3, 4), 5).data, "pass", "skipped (tensor not symmetric)", 0, id="2x3x4"
        ),
        pytest.param(np.full((2, 2, 2), 1e300), "FAIL", "pass", 1, id="1e300"),
    ],
)
def test_check_report_is_pinned(tmp_path, capsys, seed, array, gradient, euler, exit_code):
    # the whole report: one line per check in a fixed order, exit 1 on any FAIL
    t = write(tmp_path, "t.json", array)
    code, out, err = run(capsys, ["check", t, "--seed", seed])
    assert (code, err) == (exit_code, "")
    assert out == "\n".join(CHECK_LINES).format(gradient, euler) + "\n"


def test_check_nonfinite_file_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"shape": [2], "entries": [Infinity, 1.0]}')
    code, _, err = run(capsys, ["check", str(path)])
    assert code == 2


def test_garbage_file_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not a tensor")
    code, _, err = run(capsys, ["eig", str(path), "--symmetric"])
    assert code == 2
    # an integer beyond binary64: its OverflowError escaped main
    path.write_text('{"shape": [2], "entries": [1, 1%s]}' % ("0" * 400))
    code, _, err = run(capsys, ["eig", str(path), "--mode", "1"])
    assert code == 2 and "bad tensor entries" in err
    # entries that are not JSON numbers: strings loaded as their numbers, and null and
    # nested lists failed on later checks under other messages
    for entries in ('["1.5", " 2e3 "]', "[null, 1]", "[[1, 2]]"):
        path.write_text('{"shape": [2], "entries": %s}' % entries)
        code, out, err = run(capsys, ["eig", str(path), "--mode", "1"])
        assert code == 2 and out == "" and '"entries" must be a list of numbers' in err
    # a file nested 5000 arrays deep ended svd in a RecursionError traceback and exit 1,
    # and the last of a repeated name was read silently (eval printed 25)
    for text, message in [
        ("[" * 5000, "nested too deeply"),
        ('{"shape": [2], "entries": [1, 2], "entries": [3, 4]}', "'entries' is repeated"),
    ]:
        path.write_text(text)
        for argv in (["svd", str(path)], ["eval", str(path), str(path)]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
            assert message in err


# --- report determinism ------------------------------------------------------


def test_eig_report_deterministic(cubic_file, capsys):
    args = ["eig", cubic_file, "--symmetric", "--audit", "--restarts", "40", "--seed", "3"]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    assert strip_timings(out1) == strip_timings(out2)


def test_svd_report_deterministic(tmp_path, capsys):
    t = write(tmp_path, "r.json", random_tensor((2, 3), 5).data)
    args = ["svd", t, "--restarts", "24", "--seed", "1"]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    assert strip_timings(out1) == strip_timings(out2)


def _exit_and_output(capsys, call):
    """(exit code, stdout, stderr) of call(), a SystemExit included."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _main_with_a_fresh_parser(argv):
    args = build_parser().parse_args(argv)
    return args.run(args)


def test_consecutive_main_calls_are_independent(tmp_path, capsys):
    sym = write(tmp_path, "s.json", random_tensor((3, 3, 3), 8, symmetric=True).data)
    gen = write(tmp_path, "g.json", random_tensor((3, 3, 3), 9).data)
    rect = write(tmp_path, "r.json", random_tensor((3, 4, 5), 10).data)
    argvs = [
        ["eig", sym, "--symmetric", "--audit", "--restarts", "24"],
        ["eig", gen, "--mode", "2", "--restarts", "24"],
        ["eig", gen, "--mode", "0"],
        ["svd", rect, "--restarts", "24"],
    ]
    # main reuses one parser, so each of these runs on a parser that parsed the ones before
    results = [_exit_and_output(capsys, partial(main, argv)) for argv in argvs]
    fresh = [_exit_and_output(capsys, partial(_main_with_a_fresh_parser, argv)) for argv in argvs]
    assert [code for code, _, _ in results] == [0, 0, 2, 0]
    for (code, out, err), (code_f, out_f, err_f) in zip(results, fresh):
        assert (code, err) == (code_f, err_f)
        assert out == out_f == "" or strip_timings(out) == strip_timings(out_f)
    assert json.loads(results[1][1])["morse"] is None
    assert json.loads(results[0][1])["morse"] is not None


@pytest.mark.parametrize("sub", ["eig", "svd"])
def test_config_echo_lists_the_settable_values(cubic_file, capsys, sub):
    argv = [sub, cubic_file] + (["--symmetric"] if sub == "eig" else [])
    code, out, _ = run(capsys, argv + ["--restarts", "21", "--seed", "4", "--tolerance", "1e-9"])
    assert code == 0
    config = json.loads(out)["config"]
    assert config == {"restarts": 21, "gradient_tolerance": 1e-9, "seed": 4, "p": 2.0}


@pytest.mark.parametrize("command", [["eig", "--mode", "1"], ["svd"]])
def test_order_beyond_numpy_dimensions_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"shape": [1] * 65, "entries": [1.0]}))
    code, out, err = run(capsys, [command[0], str(path), *command[1:]])
    assert code == 2 and out == ""
    assert "bad tensor entries" in err


# --- running out of memory ----------------------------------------------------

# numpy's message for the array that `gen --shape 100000,100000` asks for
TOO_LARGE = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64"


@pytest.mark.parametrize(
    "allocation, argv, message",
    [
        ("tensorcrit.cli.random_tensor", ["gen", "--shape", "100000,100000"], TOO_LARGE),
        ("tensorcrit.solver._random_starts", ["eig", "--symmetric", "--restarts", "100000000"], TOO_LARGE),
        ("tensorcrit.solver._random_starts", ["svd", "--restarts", "100000000"], ""),
    ],
)
def test_running_out_of_memory_is_one_error_line(allocation, argv, message, cubic_file, capsys, monkeypatch):
    # the allocation raises as numpy does when the machine refuses it; nothing is allocated
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(allocation, refuse)
    if argv[0] != "gen":
        argv = [argv[0], cubic_file, *argv[1:]]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: out of memory: {message or 'an allocation failed'}\n"
