import math
import os
import stat
from pathlib import Path

import pytest

from fdblock.analysis import sweep_success_probability
from fdblock.cli import _build_parser, main
from fdblock.encodings import OPS
from fdblock.errors import ParameterError

from .oracles import BUILDS

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("laplace", "1", "3", "laplace_d1_n3.txt"),
    ("laplace", "2", "2", "laplace_d2_n2.txt"),
    ("lcu", "1", "2", "lcu_d1_n2.txt"),
    ("derivative", "1", "3", "derivative_d1_n3.txt"),
    ("gradient", "2", "2", "gradient_d2_n2.txt"),
    ("divergence", "2", "2", "divergence_d2_n2.txt"),
    ("wave", "2", "2", "wave_d2_n2.txt"),
]


def run(*argv):
    return main(list(argv))


def test_verify_pass(capsys):
    assert run("verify", "--op", "laplace", "--dim", "2", "--n", "2") == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_verify_laplace_dim1_reports_the_1d_label(capsys):
    assert run("verify", "--op", "laplace", "--dim", "1", "--n", "3") == 0
    assert capsys.readouterr().out.startswith("PASS laplace_1d n=3: ")


def test_verify_wave_pass(capsys):
    assert run("verify", "--op", "wave", "--n", "2") == 0
    assert "wave_2d" in capsys.readouterr().out


def test_verify_unattainable_tolerance(capsys):
    assert run("verify", "--op", "laplace", "--dim", "1", "--n", "3", "--tol", "1e-20") == 1
    assert capsys.readouterr().out.startswith("FAIL")


def test_verify_every_op(capsys):
    commands = _build_parser()._subparsers._group_actions[0].choices
    for command in commands.values():
        op_action = next(a for a in command._actions if a.dest == "op")
        assert list(op_action.choices) == list(OPS)
    for op in OPS:
        assert run("verify", "--op", op, "--n", "2") == 0
    capsys.readouterr()


def test_verify_rejects_oversized_request(capsys, monkeypatch):
    # no qubit cap: 20 qubits pass, and 35 with 5 ancillas (laplace D=5
    # at its widest n within the budget), and only the entry budget
    # refuses a build, here one whose live entries peak at 7712
    import fdblock.circuit as circuit_mod

    assert run("verify", "--op", "laplace", "--dim", "5", "--n", "6") == 0
    assert capsys.readouterr().out.startswith("PASS laplace_dd D=5 n=6: ")
    args = ("verify", "--op", "laplace", "--dim", "4", "--n", "4")
    assert run(*args) == 0
    assert capsys.readouterr().out.startswith("PASS laplace_dd D=4 n=4: ")
    monkeypatch.setattr(circuit_mod, "MAX_CUBES", 4096)
    assert run(*args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "exceed the budget of 4096" in captured.err


def test_sweep_csv_contents(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--op", "laplace", "--dim", "1", "--n", "3..8",
               "--family", "sin1", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "D,n,h,N_D,p_success,p_predicted,e_max,alpha"
    assert len(lines) == 7
    for line in lines[1:]:
        fields = line.split(",")
        n = int(fields[1])
        h = float(fields[2])
        p = float(fields[4])
        assert h == 2.0**-n
        assert abs(p - math.sin(math.pi * h) ** 4) < 1e-15


def test_sweep_multi_d_predicted_constant(tmp_path):
    out = tmp_path / "d3.csv"
    assert run("sweep", "--op", "laplace", "--dim", "3", "--n", "1..3",
               "--family", "sinprod", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        h = float(fields[2])
        predicted = float(fields[5])
        assert predicted == pytest.approx((9.0 / 16.0) * math.pi**4 * h**4, rel=1e-15)


def test_sweep_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--op", "laplace", "--dim", "2", "--n", "2..5",
            "--family", "sinprod"]
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


# Every op at each dim it takes (laplace at D = 1..4).  Only the ops
# whose (0,0) block is the scaled Laplacian, which p_predicted and e_max
# assume, may sweep.
SWEEP_CASES = BUILDS
SWEEPABLE = {"laplace", "lcu"}


@pytest.mark.parametrize("op,dim", SWEEP_CASES, ids=[f"{op}-d{d}" for op, d in SWEEP_CASES])
def test_sweep_admits_only_the_scaled_laplacian_ops(op, dim, capsys):
    code = run("sweep", "--op", op, "--dim", str(dim), "--n", "2")
    captured = capsys.readouterr()
    if op in SWEEPABLE:
        assert (code, captured.err) == (0, "")
        assert captured.out.startswith("D,n,h,N_D,p_success,p_predicted,e_max,alpha\n")
        assert len(sweep_success_probability(dim, [2], "sinprod", op=op)) == 1
    else:
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        with pytest.raises(ParameterError, match="scaled Laplacian"):
            sweep_success_probability(dim, [2], "sinprod", op=op)


@pytest.mark.parametrize("op_args", [["laplace", "--dim", "1"], ["lcu"]])
def test_sweep_family_defaults_to_sinprod(op_args, tmp_path):
    # in one dimension sinprod is sin1, so the default keeps the bytes
    assert _build_parser().parse_args(["sweep", "--op", *op_args, "--n", "3"]).family == "sinprod"
    default, sin1 = tmp_path / "default.csv", tmp_path / "sin1.csv"
    args = ["sweep", "--op", *op_args, "--n", "3..10"]
    assert run(*args, "--out", str(default)) == 0
    assert run(*args, "--family", "sin1", "--out", str(sin1)) == 0
    assert default.read_bytes() == sin1.read_bytes()


def test_sweep_empty_range_is_usage_error(capsys):
    assert run("sweep", "--op", "laplace", "--dim", "1", "--n", "5..3",
               "--family", "sin1") == 2
    assert "error" in capsys.readouterr().err


def test_sweep_unknown_family_is_usage_error(capsys):
    # the parser takes any family name, and the sweep refuses an unknown one
    assert run("sweep", "--op", "laplace", "--n", "2", "--family", "nosuch") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown family 'nosuch'")
    assert captured.err.count("\n") == 1


def test_resources_monotone_columns(tmp_path):
    out = tmp_path / "res.csv"
    assert run("resources", "--op", "laplace", "--dim", "1..3", "--n", "2..8",
               "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "builder,D,n,N_D,t_count,clifford_count,rotation_count,qubits,ancillas"
    per_dim = {}
    for line in lines[1:]:
        fields = line.split(",")
        per_dim.setdefault(int(fields[1]), []).append(int(fields[4]))
    assert set(per_dim) == {1, 2, 3}
    for ts in per_dim.values():
        assert all(b >= a for a, b in zip(ts, ts[1:]))


def test_resources_lcu_rotations(tmp_path):
    out = tmp_path / "lcu.csv"
    assert run("resources", "--op", "lcu", "--n", "2..8", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 8
    assert all(line.split(",")[6] == "6" for line in lines[1:])


@pytest.mark.parametrize("op,dim,n,fname", GOLDEN_CASES)
def test_export_matches_golden(op, dim, n, fname, tmp_path):
    out = tmp_path / "circ.txt"
    assert run("export", "--op", op, "--dim", dim, "--n", n, "--out", str(out)) == 0
    assert out.read_bytes() == (GOLDEN / fname).read_bytes()


def test_export_to_stdout(capsys):
    assert run("export", "--op", "laplace", "--dim", "1", "--n", "2") == 0
    text = capsys.readouterr().out
    assert text.startswith("H 0\nH 1\nZ 0\nZ 1\n")


def test_usage_errors(capsys):
    assert run("sweep", "--op", "wave", "--n", "2") == 2
    assert run("resources", "--op", "lcu", "--dim", "2", "--n", "3") == 2
    assert run("export", "--op", "laplace", "--dim", "1", "--n", "2..3") == 2
    assert run("sweep", "--op", "laplace", "--dim", "1", "--n", "x") == 2
    with pytest.raises(SystemExit) as rejected:
        run("export", "--op", "laplace", "--dim", "1", "--n", "2", "--format", "csv")
    assert rejected.value.code == 2
    assert run("verify", "--op", "laplace", "--dim", "1", "--n", "3",
               "--tol", "-1") == 2
    capsys.readouterr()
    assert run("verify", "--op", "laplace", "--n", "a..3") == 2
    assert "bad range 'a..3'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value",
    [("--n", "2..1000000000"), ("--n", "2..3000000"), ("--n", "65"), ("--n", "0"),
     ("--n", "-1000000000..2"), ("--dim", "1..65")],
)
def test_ranges_beyond_the_build_cap_are_refused_before_any_list(flag, value, monkeypatch, capsys):
    import fdblock.cli as cli

    # A range of more than 64 values means the bounds went unchecked;
    # failing here keeps a regression from allocating a billion ints.
    def small_range(lo, hi):
        assert hi - lo <= 64, (lo, hi)
        return range(lo, hi)

    monkeypatch.setattr(cli, "range", small_range, raising=False)
    args = {"--n": "2", "--dim": "1", flag: value}
    assert run("resources", "--op", "laplace", "--dim", args["--dim"], f"--n={args['--n']}") == 2
    assert f"error: {flag} {value} is outside 1..64" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "resources", "export"])
def test_tolerance_only_on_commands_that_read_it(command, capsys):
    with pytest.raises(SystemExit) as rejected:
        run(command, "--op", "laplace", "--dim", "1", "--n", "2", "--tol", "1e-9")
    assert rejected.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_is_usage_error(tol, capsys):
    assert run("verify", "--op", "laplace", "--dim", "1", "--n", "3", f"--tol={tol}") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerance must be finite and positive" in captured.err


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    import fdblock.cli as cli

    def crash(args):
        raise RuntimeError("simulated\nfault")

    monkeypatch.setitem(cli._COMMANDS, "verify", crash)
    assert run("verify", "--op", "laplace", "--dim", "1", "--n", "3") == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: simulated fault (at test_cli.py:")
    assert err.count("\n") == 1


def test_io_error_exit_code(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    code = run("sweep", "--op", "laplace", "--dim", "1", "--n", "3",
               "--family", "sin1", "--out", str(target))
    assert code == 3
    assert "i/o error" in capsys.readouterr().err
    # replacing a directory fails after the temporary file is written,
    # and the temporary file is removed
    taken = tmp_path / "taken"
    taken.mkdir()
    assert run("export", "--op", "wave", "--n", "2", "--out", str(taken)) == 3
    assert "i/o error" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["taken"]
    assert os.listdir(taken) == []


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out = tmp_path / "res.csv"
    assert run("resources", "--op", "derivative", "--n", "2..3", "--out", str(out)) == 0
    assert sorted(os.listdir(tmp_path)) == ["res.csv"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_out_files_get_the_mode_the_umask_gives(tmp_path, umask, mode):
    # the mode a shell redirection would give, not mkstemp's 0600
    out = tmp_path / "ex.txt"
    previous = os.umask(umask)
    try:
        assert run("export", "--op", "derivative", "--n", "2", "--out", str(out)) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == mode
