"""End-to-end tests of the command-line interface."""

import json
import tracemalloc

import pytest
from test_golden import COMMANDS as GOLDEN_COMMANDS
from test_golden import GOLDEN

from zaktp.cli import parse_and_run


def run(capsys, *argv):
    code = parse_and_run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zero_symmetric(capsys):
    code, out, _ = run(capsys, "zero", "--weights", "1,-1", "--tol", "1e-12")
    assert code == 0
    assert json.loads(out)["x_zero"] == 0.5


def test_zero_type1_reports_error(capsys):
    code, _, err = run(capsys, "zero", "--weights", "1")
    assert code == 1
    assert "NoZero" in err


def test_zero_of_a_window_whose_spline_slice_underflows_exits_with_one_line(capsys):
    # n = 46: sum log a = 749, and the half slice underflows to 0; n = 44 is found
    code, out, err = run(capsys, "zero", "--gen", "geometric:c=1,r=2", "--n", "46")
    assert (code, out) == (1, "")
    assert err == "IllConditioned: the slice underflows to 0 on every sample: the spline factor leaves the double range\n"
    code, out, _ = run(capsys, "zero", "--gen", "geometric:c=1,r=2", "--n", "44")
    assert code == 0 and json.loads(out)["x_zero"] == 0.28023870432273873


def test_zero_coarse_tol_returns_the_root(capsys):
    # a tolerance wider than the scan's bracket still ends on the zero, not on the jump check
    code, out, _ = run(capsys, "zero", "--weights", "1,-2", "--tol", "1e-3")
    assert code == 0
    assert json.loads(out)["x_zero"] == pytest.approx(0.60455544117491655, abs=1e-3)


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_zero_rejects_a_tol_that_is_not_finite(capsys, tol):
    code, out, err = run(capsys, "zero", "--weights", "1,-2", "--tol", tol)
    assert (code, out) == (1, "")
    assert err == f"ValueError: tol must be positive and finite, got {tol}\n"


@pytest.mark.parametrize(
    "argv, error",
    [
        (("zak", "--weights=1,-1", "--nx", "0"), "ValueError: the grid needs at least one x and one omega sample"),
        (("zak", "--weights=1,-1", "--nomega", "-3"), "ValueError: the grid needs at least one x and one omega sample"),
        (("zak", "--weights=1,-1", "--tau", "nan", "--nx", "2", "--nomega", "2"), "StripViolation: |tau| = nan"),
        (("certify", "--weights=1,-1", "--tau", "nan"), "StripViolation: |tau| = nan"),
        (("certify", "--weights=1,-1", "--step", "nan"), "ValueError: grid_step must be positive and finite, got nan"),
        (("converge", "--gen", "harmonic", "--ns", "4", "--n-ref", "8", "--sigma", "nan"), "ValueError: sigma must be nonnegative, got nan"),
        (("psi", "--weights=1,-1", "--tau-min", "0"), "ValueError: need a finite omega and at least two tau samples"),
        (("psi", "--weights=1,-1", "--tau-min", "-1"), "ValueError: need a finite omega and at least two tau samples"),
        (("psi", "--weights=1,-1", "--omega", "nan"), "ValueError: need a finite omega and at least two tau samples"),
        (("psi", "--weights=1,-1", "--samples", "1"), "ValueError: need a finite omega and at least two tau samples"),
        (("psi", "--weights=1,-1", "--tau-min", "10", "--tau-max", "10"), "ValueError: need a finite omega and at least two tau samples"),
    ],
)
def test_nan_and_degenerate_values_exit_with_error_class(capsys, argv, error):
    # one error line and no output: no NaN report, bare CSV header, LAPACK message or traceback
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(error) and err.count("\n") == 1


@pytest.mark.parametrize("command", ["zero", "zak", "framebounds"])
def test_exponent_past_the_double_range_exits_with_one_line(capsys, command):
    # e^800 in the spline build was an untyped OverflowError and a traceback
    code, out, err = run(capsys, command, "--weights=-800,1")
    assert (code, out, err) == (1, "", "IllConditioned: spline weight 800.0: e^800.0 leaves the double range\n")


def test_zak_refuses_a_huge_grid(capsys):
    # exit 1 with a message, before the 4e10-node grid is allocated
    code, out, err = run(capsys, "zak", "--weights=1,-1", "--nx", "200000", "--nomega", "200000")
    assert (code, out) == (1, "")
    assert err == "ValueError: a 200000x200000 grid exceeds 4194304 nodes\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--x-range", "0,2", "--omega-range", "0,2", "--step", "0.0009765625"], "a 2049x2049 grid exceeds 4194304 nodes"),
        (["--x-range", "0,2047", "--omega-range", "0.3,0.3", "--step", "1"], "a 2049x2048 series table exceeds 4194304 nodes"),
        (["--x-range", "0,4096", "--omega-range", "0,0.45", "--step", "0.0009765625"],
         "a step of 0.0009765625 on (0.0, 4096.0) exceeds 4194304 nodes"),
    ],
)
def test_certify_refuses_a_scan_over_the_node_cap(capsys, argv, message):
    # exit 1 with one line, and nothing grid-sized allocated: the last one once asked for 128 GiB
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "certify", "--weights=1,-1", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (1, "", f"ValueError: {message}\n")
    assert peak < 1e6


def test_discrete_frame_has_no_tol_option(capsys):
    # the periodization is a closed form: there is no tail tolerance to set
    assert run(capsys, "discrete-frame", "--weights", "1,-1", "--K", "4", "--M", "2", "--tol", "1e-14")[0] == 2


def test_usage_error_exit_code(capsys):
    assert run(capsys, "frobnicate")[0] == 2


@pytest.mark.parametrize("weights,error", [("--weights=0", "ZeroWeight: "), ("--weights=,", "EmptyInput: ")])
def test_eval_bad_weights_exit_with_error_class(capsys, weights, error):
    # the weights are checked after parsing, so their errors are domain errors
    code, out, err = run(capsys, "eval", weights)
    assert (code, out) == (1, "")
    assert err.startswith(error)


def test_eval_without_weights_is_a_usage_error(capsys):
    code, out, err = run(capsys, "eval")
    assert (code, out) == (2, "")
    assert err.startswith("usage: zaktp") and "eval needs --weights or --gen" in err


@pytest.mark.parametrize("grid", ["1:2", "0:1:x", "0:1:0", "0:1:-2", "a:1:3", "0:1:2:3"])
def test_eval_bad_grid_is_a_usage_error(capsys, grid):
    code, out, err = run(capsys, "eval", "--weights=1,-1", f"--grid={grid}")
    assert (code, out) == (2, "")
    assert f"argument --grid: bad grid {grid!r}" in err


@pytest.mark.parametrize(
    "argv, flag, value, kind",
    [
        (("eval", "--weights=1,x"), "--weights", "1,x", "floats"),
        (("eval", "--weights=1,-1", "--x=0.1,a"), "--x", "0.1,a", "floats"),
        (("certify", "--weights=1,-1", "--x-range=0,b"), "--x-range", "0,b", "floats"),
        # a non-integer n was cut to int: 4.5 gave a row for n = 4
        (("converge", "--gen", "harmonic:c=1", "--ns", "4.5,8", "--n-ref", "8"), "--ns", "4.5,8", "ints"),
        (("converge", "--gen", "harmonic:c=1", "--ns", "4,8.0", "--n-ref", "8"), "--ns", "4,8.0", "ints"),
    ],
)
def test_a_bad_list_is_a_usage_error(capsys, argv, flag, value, kind):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"argument {flag}: bad list {value!r}, expected comma-separated {kind}\n" in err


def test_eval_csv(capsys):
    code, out, _ = run(capsys, "eval", "--weights", "1,-1", "--x", "0,1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,g"
    assert float(lines[1].split(",")[1]) == 0.5


def test_eval_apply_shift_centers_peak(capsys):
    # one-sided window peaks near sum(1/a); the shift moves that near x = 0
    code, out, _ = run(capsys, "eval", "--weights", "1,1", "--x", "0", "--apply-shift")
    v_shifted = float(out.strip().split("\n")[1].split(",")[1])
    code, out, _ = run(capsys, "eval", "--weights", "1,1", "--x", "0")
    v_raw = float(out.strip().split("\n")[1].split(",")[1])
    assert v_shifted > v_raw


def test_eval_generator(capsys):
    code, out, _ = run(capsys, "eval", "--gen", "harmonic:c=1", "--n", "3", "--x", "1.0")
    assert code == 0


def test_zak_json_schema(capsys):
    code, out, _ = run(
        capsys, "zak", "--weights", "1,-1", "--nx", "4", "--nomega", "2", "--format", "json"
    )
    assert code == 0
    d = json.loads(out)
    assert d["schema"] == "zakgrid/1"
    assert len(d["re"]) == 2
    assert len(d["re"][0]) == 4


def test_certify_json(capsys):
    code, out, _ = run(
        capsys, "certify", "--weights", "1,-1", "--omega-range", "0,0.4", "--step", "0.00390625"
    )
    assert code == 0
    d = json.loads(out)
    assert d["schema"] == "zerocert/1"
    assert d["verdict"] == "zero_free_certified"


def test_certify_overflowing_window_exits_with_error_class(capsys):
    code, out, err = run(capsys, "certify", "--gen", "geometric:c=1,r=2", "--n", "64")
    assert code == 1
    assert out == ""
    assert err.startswith("IllConditioned: ")


@pytest.mark.parametrize("flag", ["--x-range", "--omega-range"])
@pytest.mark.parametrize("value", ["0.5", "0.1,0.2,0.9"])
def test_certify_range_needs_two_values(capsys, flag, value):
    code, out, err = run(capsys, "certify", "--weights=1,-1", flag, value)
    assert code == 2
    assert out == ""
    assert f"argument {flag}: bad range {value!r}" in err


def test_framebounds_zero_on_grid(capsys):
    code, out, _ = run(
        capsys,
        "framebounds", "--weights", "1,-1", "--N", "1", "--res", "32x32", "--refinements", "1",
    )
    assert code == 0
    d = json.loads(out)
    assert d["schema"] == "framebounds/1"
    assert d["A_est"] < 1e-20


def test_discrete_frame(capsys):
    code, out, _ = run(capsys, "discrete-frame", "--weights", "1,-1", "--K", "3", "--M", "1")
    assert code == 0
    assert json.loads(out)["is_frame"] is True


def test_discrete_frame_indivisible_exit_code(capsys):
    code, _, err = run(capsys, "discrete-frame", "--weights", "1,-1", "--K", "4", "--M", "3")
    assert code == 1
    assert "Indivisible" in err


def test_converge_csv(capsys):
    code, out, _ = run(
        capsys, "converge", "--gen", "geometric:c=1,r=2", "--ns", "4,8", "--n-ref", "16"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,sigma,distance,tail_proxy"
    assert len(lines) == 3


def test_psi_exponent(capsys):
    code, out, _ = run(capsys, "psi", "--weights", "1,2,3")
    assert code == 0
    assert json.loads(out)["fitted_exponent"] <= -2.9


def test_outputs_byte_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        run(capsys, "framebounds", "--weights", "1,-1", "--N", "2", "--res", "16x16",
            "--refinements", "1", "--out", str(p))
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()


def test_json_round_trip(capsys):
    _, out, _ = run(capsys, "certify", "--weights", "1,-1", "--omega-range", "0,0.3",
                    "--step", "0.0078125")
    d = json.loads(out)
    assert json.loads(json.dumps(d)) == d


@pytest.mark.parametrize("res,refinements", [("8x8", "40"), ("64x64", "10"), ("4096x2048", "0")])
def test_framebounds_grid_cap_is_an_error(capsys, res, refinements):
    # refused before any allocation: 64 TiB, 34 GB and 64 MB of grid
    code, out, err = run(capsys, "framebounds", "--weights=1,-1", "--res", res, "--refinements", refinements)
    assert code == 1
    assert out == ""
    assert err.startswith("ValueError: ") and "exceeds 4194304 nodes" in err


def test_discrete_frame_huge_K_is_an_error(capsys):
    # refused before the 7.45 GiB of samples are allocated: one line, exit 1
    code, out, err = run(capsys, "discrete-frame", "--weights", "1,-1", "--K", "1000000000", "--M", "2")
    assert (code, out, err) == (1, "", "ValueError: K must be positive and at most 4194304, got 1000000000\n")


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_out_writes_the_golden_bytes(tmp_path, capsys, name):
    # every subcommand honours --out: nothing on stdout, the golden bytes in the file
    path = tmp_path / "out.txt"
    code, out, err = run(capsys, *GOLDEN_COMMANDS[name], "--out", str(path))
    assert (code, out, err) == (0, "", "")
    assert path.read_bytes() == (GOLDEN / f"{name}.txt").read_bytes()


@pytest.mark.parametrize(
    "command", ["eval", "zero", "certify", "framebounds", "discrete-frame", "converge", "psi"]
)
def test_format_is_a_usage_error_except_on_zak(capsys, command):
    # only zak has a choice of format; the others would ignore the option
    argv = next(argv for argv in GOLDEN_COMMANDS.values() if argv[0] == command)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --format json" in err
