import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gzpot as gz
from gzpot import cli

SQRT2 = math.sqrt(2.0)

N1_CONFIG = {"E": 1.0, "blocks": [{"lambda": [SQRT2, 0.0], "gamma": [1.0, 0.0]}]}
N2_CONFIG = {
    "E": 1.0,
    "blocks": [
        {"lambda": [SQRT2, 0.0], "gamma": [1.0, 0.0]},
        {"lambda": [0.0, 2.0], "gamma": [0.5, 0.5]},
    ],
}
UNIT_MODULUS_CONFIG = {
    "E": 1.0,
    "blocks": [{"lambda": [math.cos(0.3), math.sin(0.3)], "gamma": [1.0, 0.0]}],
}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate --------------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    code, out, _ = run(capsys, "validate", write_config(tmp_path, N1_CONFIG))
    assert code == 0
    assert out.startswith("ok:")


def test_validate_unit_modulus_exit_1(tmp_path, capsys):
    code, out, _ = run(capsys, "validate", write_config(tmp_path, UNIT_MODULUS_CONFIG))
    assert code == 1
    assert "= 1 within tolerance" in out


def test_validate_zero_lambda_exit_1(tmp_path, capsys):
    cfg = {"E": 1.0, "blocks": [{"lambda": [0.0, 0.0], "gamma": [1.0, 0.0]}]}
    code, _, err = run(capsys, "validate", write_config(tmp_path, cfg))
    assert code == 1
    assert "zero within tolerance" in err


def test_validate_nonfinite_energy_exit_1(tmp_path, capsys):
    cfg = dict(N1_CONFIG, E=math.inf)  # written as the JSON extension Infinity
    code, out, _ = run(capsys, "validate", write_config(tmp_path, cfg))
    assert code == 1
    assert out == "violation: energy E must be positive and finite\n"


def test_validate_overflowing_seed_exit_1(tmp_path, capsys):
    cfg = {"E": 1.0, "blocks": [{"lambda": [1e200, 0.0], "gamma": [1.0, 0.0]}]}
    code, out, _ = run(capsys, "validate", write_config(tmp_path, cfg))
    assert code == 1
    assert out == "violation: parameters must be finite\n"


def test_validate_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"E": 1.0, "blocks": [', encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line" in err and "column" in err


def test_validate_schema_error_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "validate", write_config(tmp_path, {"blocks": []}))
    assert code == 2
    assert '"E"' in err


def test_validate_missing_file_exit_2(tmp_path, capsys):
    code, _, _ = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2


@pytest.mark.parametrize(
    "cfg, key",
    [
        (dict(N1_CONFIG, E=10**400), '"E"'),
        ({"E": 1.0, "blocks": [{"lambda": [10**400, 0], "gamma": [1, 0]}]}, "blocks[0].lambda"),
    ],
    ids=["energy", "lambda"],
)
def test_validate_huge_json_integer_exit_2_one_line(tmp_path, capsys, cfg, key):
    path = write_config(tmp_path, cfg)
    code, out, err = run(capsys, "validate", path)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {key}: number too large for a float\n"


# -- eval ------------------------------------------------------------------------


def test_eval_grid_header_and_shape(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(
        capsys,
        "eval",
        write_config(tmp_path, N1_CONFIG),
        "--grid",
        "0:1:2,0:1:2",
        "--t",
        "0.0",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x1,x2,v,w_re,w_im,absdet"
    assert len(lines) == 5


def test_eval_csv_reparse_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    run(
        capsys,
        "eval",
        write_config(tmp_path, N2_CONFIG),
        "--grid=-2:2:5,-1:1:4",
        "--t",
        "0.3",
        "--out",
        str(out_path),
    )
    text = out_path.read_text(encoding="utf-8")
    lines = text.splitlines()
    rebuilt = [lines[0]]
    for line in lines[1:]:
        rebuilt.append(",".join(f"{float(tok):.17g}" for tok in line.split(",")))
    assert "\n".join(rebuilt) + "\n" == text


def test_eval_travel_wave_shifted_grid(tmp_path, capsys):
    # One block: shifting the window by c*dt and advancing time leaves v as is.
    cfg = write_config(tmp_path, N1_CONFIG)
    dt = 0.1
    shift = 21.0 * dt
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "eval", cfg, "--grid=-1:1:5,-1:1:5", "--t", "0.0", "--out", str(a_path))
    run(
        capsys,
        "eval",
        cfg,
        "--grid",
        f"{-1 + shift}:{1 + shift}:5,-1:1:5",
        "--t",
        str(dt),
        "--out",
        str(b_path),
    )
    va = [float(l.split(",")[2]) for l in a_path.read_text().splitlines()[1:]]
    vb = [float(l.split(",")[2]) for l in b_path.read_text().splitlines()[1:]]
    assert max(abs(x - y) for x, y in zip(va, vb)) <= 1e-9


def test_eval_far_field_row_bounded(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "eval",
        write_config(tmp_path, N1_CONFIG),
        "--grid",
        "512:1024:2,0.5:1:2",
        "--t",
        "0.0",
    )
    assert code == 0
    for line in out.splitlines()[1:]:
        x1, x2, v = (float(t) for t in line.split(",")[:3])
        assert (x1 * x1 + x2 * x2) * abs(v) < 100.0


def test_eval_bad_grid_exit_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "eval", write_config(tmp_path, N1_CONFIG), "--grid", "0:1:2"
    )
    assert code == 2
    assert "grid" in err


def test_eval_invalid_config_exit_1(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "eval",
        write_config(tmp_path, UNIT_MODULUS_CONFIG),
        "--grid",
        "0:1:2,0:1:2",
    )
    assert code == 1
    assert "invalid" in err


# -- velocity --------------------------------------------------------------------


def test_velocity_single_block(tmp_path, capsys):
    code, out, _ = run(capsys, "velocity", write_config(tmp_path, N1_CONFIG))
    assert code == 0
    assert np.allclose(json.loads(out), [[21.0, 0.0]], atol=1e-12)


def test_velocity_two_blocks(tmp_path, capsys):
    code, out, _ = run(capsys, "velocity", write_config(tmp_path, N2_CONFIG))
    assert code == 0
    got = json.loads(out)
    assert np.allclose(got, [[21.0, 0.0], [-19.5, 0.0]])
    assert abs(got[0][0] - got[1][0]) > 1e-6  # pairwise distinct


# -- solve-velocity ----------------------------------------------------------------


def test_solve_velocity_recovers_seed(capsys):
    code, out, _ = run(capsys, "solve-velocity", "--E", "1.0", "--c", "21,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    lams = [complex(re, im) for re, im in payload["lambdas"]]
    assert min(abs(l - SQRT2) for l in lams) < 1e-9


def test_solve_velocity_forbidden_with_bound(capsys):
    code, out, _ = run(capsys, "solve-velocity", "--E", "1.0", "--c", "18,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "forbidden"
    assert abs(payload["bound"] - 18.0) < 1e-9


def test_solve_velocity_energy_scaling(capsys):
    code, out, _ = run(capsys, "solve-velocity", "--E", "2.0", "--c", "42,0")
    assert code == 0
    payload = json.loads(out)
    lams = [complex(re, im) for re, im in payload["lambdas"]]
    assert min(abs(l - SQRT2) for l in lams) < 1e-9


def test_solve_velocity_bad_input_exit_2(capsys):
    assert run(capsys, "solve-velocity", "--E", "1.0", "--c", "21")[0] == 2
    assert run(capsys, "solve-velocity", "--E", "-1.0", "--c", "21,0")[0] == 2


def test_solve_velocity_near_unit_modulus_exit_0(capsys):
    lam = 1.00001 * complex(math.cos(0.1), math.sin(0.1))
    c = gz.velocity(lam, 1.0)
    code, out, _ = run(capsys, "solve-velocity", "--E", "1", f"--c={c.real!r},{c.imag!r}")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    lams = [complex(re, im) for re, im in payload["lambdas"]]
    assert min(abs(l - lam) for l in lams) <= 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ("--E", "1", "--c", "nan,0"),
        ("--E", "nan", "--c", "21,0"),
        ("--E", "inf", "--c", "1,0"),
        ("--E", "1e-300", "--c", "1,0"),
        ("--E", "1.7e308", "--c", "1.7e308,1.7e308"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_solve_velocity_bad_input_exit_2_one_line(capsys, argv):
    code, out, err = run(capsys, "solve-velocity", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solve_velocity_forbidden_at_an_underflowing_angle(capsys):
    # arg(c) = 2e-341 underflows; the direction is simply the real axis.
    code, out, err = run(capsys, "solve-velocity", "--E", "1e300", "--c", "1e300,2e-41")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["status"] == "forbidden"
    assert payload["bound"] == pytest.approx(18e300)


# -- residual ----------------------------------------------------------------------


def test_residual_within_tolerance_and_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, N2_CONFIG)
    code, out1, _ = run(capsys, "residual", cfg, "--points", "100", "--seed", "7")
    assert code == 0
    payload = json.loads(out1)
    assert payload["evolution_residual"] <= 1e-8
    assert payload["constraint_residual"] <= 1e-10
    assert payload["points"] == 100
    assert payload["seed"] == 7
    _, out2, _ = run(capsys, "residual", cfg, "--points", "100", "--seed", "7")
    assert out1 == out2


# -- asymptotics -------------------------------------------------------------------


def test_asymptotics_single_block(tmp_path, capsys):
    out_path = tmp_path / "asym.json"
    code, _, _ = run(
        capsys,
        "asymptotics",
        write_config(tmp_path, N1_CONFIG),
        "--block",
        "1",
        "--times",
        "10,100",
        "--window-points",
        "5",
        "--out",
        str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["times"] == [10.0, 100.0]
    for side in ("forward", "backward"):
        assert max(payload[side]["errors_v"]) <= 1e-10
        assert set(payload[side]) == {"errors_v", "errors_w", "probe_decay"}


def test_asymptotics_two_blocks_decreasing(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "asymptotics",
        write_config(tmp_path, N2_CONFIG),
        "--block",
        "2",
        "--times",
        "10,100,1000",
        "--window-points",
        "5",
    )
    assert code == 0
    payload = json.loads(out)
    ev = payload["forward"]["errors_v"]
    assert ev[0] > ev[1] > ev[2]
    pd = payload["forward"]["probe_decay"]
    assert pd[0] > pd[1] > pd[2]


def test_asymptotics_bad_block_exit_2(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "asymptotics",
        write_config(tmp_path, N2_CONFIG),
        "--block",
        "5",
        "--times",
        "10,100",
    )
    assert code == 2
    assert "block" in err


# -- rejected input ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("residual", "--points", "0"),
        ("residual", "--points", "-3"),
        ("residual", "--seed", "-1"),
        ("eval", "--grid=-1:1:3,-1:1:3", "--t", "nan"),
        ("eval", "--grid=-1:1:3,-1:1:3", "--t", "inf"),
        ("eval", "--grid=-inf:1:3,-1:1:3"),
        ("asymptotics", "--block", "1", "--times", "10,100", "--window-points", "0"),
        ("asymptotics", "--block", "1", "--times", "10,nan"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_input_exit_2_one_line(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, N1_CONFIG)
    code, out, err = run(capsys, argv[0], cfg, *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")  # a numpy warning would reach stderr
def test_eval_huge_time_leaves_stderr_empty(tmp_path, capsys):
    # |det A| exceeds the float range and is printed as inf, without a warning.
    cfg = write_config(tmp_path, N1_CONFIG)
    code, out, err = run(capsys, "eval", cfg, "--grid=-1:1:3,-1:1:3", "--t", "1e300")
    assert code == 0
    assert err == ""
    assert out.splitlines()[1].endswith(",inf")


@pytest.mark.filterwarnings("error")
def test_eval_overflowing_matrix_exit_4_one_line(tmp_path, capsys):
    # The diagonal of A overflows to inf; no numpy warning precedes the error.
    cfg = write_config(tmp_path, N1_CONFIG)
    code, out, err = run(capsys, "eval", cfg, "--grid=-1:1:3,-1:1:3", "--t", "1e308")
    assert code == 4
    assert out == ""
    assert err.startswith("error: evaluation failed at (x1=-1, x2=-1, t=1e+308)")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, code",
    [
        (("--window", "inf"), 2),
        (("--probe", "1e308,0"), 2),
        (("--window", "1e200"), 0),
    ],
    ids=["window inf", "probe 1e308", "window 1e200"],
)
def test_asymptotics_overflow_one_line_or_none(tmp_path, capsys, argv, code):
    # Overflowing window or co-moving coordinates print no numpy warning.
    cfg = write_config(tmp_path, N1_CONFIG)
    got, out, err = run(capsys, "asymptotics", cfg, "--block", "1", "--times", "10", *argv)
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
        assert json.loads(out)["block"] == 1


@pytest.mark.filterwarnings("error")
def test_eval_overflowing_energy_exit_4_one_line(tmp_path, capsys):
    # E^(3/2) overflows, so no entry of A is finite: a valid set that no
    # float evaluation can serve.
    cfg = write_config(tmp_path, dict(N1_CONFIG, E=1e300))
    code, out, err = run(capsys, "eval", cfg, "--grid=-1:1:2,-1:1:2")
    assert code == 4
    assert out == ""
    assert err.startswith("error: evaluation failed at (x1=-1, x2=-1, t=0)")
    assert err.count("\n") == 1


def test_eval_near_singular_exit_4_names_point(tmp_path, capsys, monkeypatch, near_singular_set):
    # The near-singular set breaks the gamma constraints, so no config file
    # can hold it; the loader and validation are bypassed to reach evaluation.
    monkeypatch.setattr(cli.par, "load_parameter_set", lambda path: near_singular_set)
    monkeypatch.setattr(cli.par, "validate", lambda ps: gz.ValidationReport(True, ()))
    code, out, err = run(capsys, "eval", "unused.json", "--grid=-1:1:3,-1:1:3")
    assert code == 4
    assert out == ""
    assert err.startswith("error: evaluation failed at (x1=0, x2=0, t=0): near-singular")


@pytest.mark.parametrize(
    "command, argv",
    [
        ("eval", ("--grid=-1:1:3,-1:1:3", "--out")),
        ("asymptotics", ("--block", "1", "--times", "10", "--window-points", "3", "--out")),
    ],
    ids=["eval", "asymptotics"],
)
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exit_2_one_line(tmp_path, capsys, command, argv, target):
    cfg = write_config(tmp_path, N1_CONFIG)
    out_path = str(tmp_path / "absent" / "x.out") if target == "missing-dir" else str(tmp_path)
    code, out, err = run(capsys, command, cfg, *argv, out_path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out_path in err


# -- the exit-code table -----------------------------------------------------------

# Each command with the library call it makes, patched below to fail.
TABLE_COMMANDS = [
    pytest.param(("validate", "{cfg}"), "par", "validate", id="validate"),
    pytest.param(("eval", "{cfg}", "--grid=-1:1:3,-1:1:3"), "pot", "fields", id="eval"),
    pytest.param(("velocity", "{cfg}"), "par", "block_velocities", id="velocity"),
    pytest.param(
        ("solve-velocity", "--E", "1", "--c", "21,0"),
        "par",
        "solve_velocity_inverse",
        id="solve-velocity",
    ),
    pytest.param(("residual", "{cfg}", "--points", "3"), "ver", "nv_residual", id="residual"),
    pytest.param(
        ("asymptotics", "{cfg}", "--block", "1", "--times", "10"),
        "ver",
        "asymptotic_error_sweep",
        id="asymptotics",
    ),
]
NEAR_SINGULAR_LINE = (
    "error: evaluation failed at (x1=1, x2=2, t=3): near-singular potential matrix at "
    "(x1=1, x2=2, t=3): |det| = 1.000e-03, rcond = 1.000e-14\n"
)
TABLE_FAILURES = [
    (
        gz.InvalidParameterSetError(gz.ValidationReport(False, ("a", "b"))),
        1,
        "invalid: a\ninvalid: b\n",
    ),
    (gz.NearSingularError(gz.SpacetimePoint(1.0, 2.0, 3.0), 1e-3, 1e-14), 4, NEAR_SINGULAR_LINE),
    (gz.VelocityInverseError("on the boundary"), 3, "error: on the boundary\n"),
    (ValueError("bad value"), 2, "error: bad value\n"),
    (OSError("cannot go on"), 2, "error: cannot go on\n"),
]


@pytest.mark.parametrize("argv, module, name", TABLE_COMMANDS)
@pytest.mark.parametrize(
    "exc, code, err", TABLE_FAILURES, ids=[type(f[0]).__name__ for f in TABLE_FAILURES]
)
def test_exit_code_table(tmp_path, capsys, monkeypatch, argv, module, name, exc, code, err):
    def fail(*args, **kwargs):
        raise exc.with_traceback(None)  # the instance is shared by the cases

    monkeypatch.setattr(getattr(cli, module), name, fail)
    cfg = write_config(tmp_path, N2_CONFIG)
    assert run(capsys, *(a.format(cfg=cfg) for a in argv)) == (code, "", err)


# -- one parser per process ----------------------------------------------------------


def test_parser_is_built_once():
    parser = cli.build_parser()
    assert cli.main(["solve-velocity", "--E", "1", "--c", "21,0"]) == 0
    assert cli.build_parser() is parser


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    cfg = write_config(tmp_path, N1_CONFIG)
    grid = "--grid=-1:1:3,-1:1:3"
    _, later, _ = run(capsys, "eval", cfg, grid, "--t=0.5")
    _, plain, _ = run(capsys, "eval", cfg, grid)
    _, at_zero, _ = run(capsys, "eval", cfg, grid, "--t", "0")
    assert plain == at_zero != later

    argv = ("asymptotics", cfg, "--block", "1", "--times", "10", "--window-points", "3")
    _, probed, _ = run(capsys, *argv, "--probe", "1,0")
    _, unprobed, _ = run(capsys, *argv)
    assert json.loads(probed)["probe_velocity"] == [1.0, 0.0]
    assert json.loads(unprobed)["probe_velocity"] == [0.0, 0.0]


@pytest.mark.parametrize("argv", [("eval",), ("solve-velocity", "--E", "x", "--c", "1,0"), ("-h",)])
def test_parser_exit_leaves_next_call_working(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == (0 if argv == ("-h",) else 2)
    assert "usage: gzpot" in "".join(capsys.readouterr())
    code, out, err = run(capsys, "solve-velocity", "--E", "1", "--c", "21,0")
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "ok"


# -- the CLI contract as a property --------------------------------------------------

# Each value is drawn either from a range where the command runs to the end or
# from the extremes: zero, the float limits, non-finite values and, in
# configs, JSON integers beyond the float range.
EXTREMES = (0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, math.inf, -math.inf, math.nan)
HUGE_INT = 10**400


def _numbers(lo: float, hi: float, *extra):
    return st.one_of(st.floats(lo, hi), st.sampled_from(EXTREMES + extra))


def _arg(x: float) -> str:
    return repr(float(x))


def _configs(energy, number):
    pair = st.lists(number, min_size=2, max_size=2)
    block = st.fixed_dictionaries({"lambda": pair, "gamma": pair})
    return st.fixed_dictionaries({"E": energy, "blocks": st.lists(block, min_size=1, max_size=3)})


CONFIGS = st.one_of(
    _configs(st.floats(0.2, 4.0), st.floats(-3, 3)),
    _configs(_numbers(0.2, 4.0, HUGE_INT, 2), _numbers(-3, 3, HUGE_INT, -HUGE_INT, 0)),
)
PAIRS = st.tuples(_numbers(-30, 30), _numbers(-30, 30)).map(lambda p: f"{_arg(p[0])},{_arg(p[1])}")
GRID_AXES = st.one_of(
    st.tuples(st.floats(-5, -0.5), st.floats(0.5, 5), st.integers(2, 6)),
    st.tuples(_numbers(-5, 5), _numbers(-5, 5), st.integers(0, 6)),
).map(lambda a: f"{_arg(a[0])}:{_arg(a[1])}:{a[2]}")
TIMES = st.one_of(
    st.lists(st.floats(1.0, 1e6), min_size=1, max_size=3, unique=True).map(sorted),
    st.lists(_numbers(-5, 5), min_size=1, max_size=3),
).map(lambda ts: ",".join(map(_arg, ts)))
# The flags of each command; all but solve-velocity take the config path first.
COMMAND_FLAGS = {
    "validate": st.just(()),
    "velocity": st.just(()),
    "eval": st.tuples(GRID_AXES, GRID_AXES, _numbers(-2, 2)).map(
        lambda a: (f"--grid={a[0]},{a[1]}", f"--t={_arg(a[2])}")
    ),
    "residual": st.tuples(st.integers(-1, 5), st.integers(-1, 3)).map(
        lambda a: ("--points", str(a[0]), "--seed", str(a[1]))
    ),
    "asymptotics": st.tuples(
        st.sampled_from((1, 2, 3, 0)), TIMES, _numbers(0.5, 5), st.integers(0, 7), st.none() | PAIRS
    ).map(
        lambda a: (
            "--block", str(a[0]),
            f"--times={a[1]}",
            f"--window={_arg(a[2])}",
            "--window-points", str(a[3]),
        )
        + (() if a[4] is None else (f"--probe={a[4]}",))
    ),
    "solve-velocity": st.tuples(_numbers(0.2, 4.0), PAIRS).map(
        lambda a: (f"--E={_arg(a[0])}", f"--c={a[1]}")
    ),
}
COMMANDS = st.sampled_from(sorted(COMMAND_FLAGS)).flatmap(
    lambda cmd: COMMAND_FLAGS[cmd].map(lambda flags: (cmd, flags))
)


def _check_stdout(command: str, out: str) -> None:
    """Exit 0: the output parses, and no report covers an empty sample."""
    if command == "validate":
        assert out.startswith("ok: ") and out.count("\n") == 1
    elif command == "eval":
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert header == ["x1", "x2", "v", "w_re", "w_im", "absdet"]
        assert rows and all(len(row) == 6 for row in rows)
        [float(x) for row in rows for x in row]
    else:
        payload = json.loads(out)
        if command == "residual":
            assert payload["points"] >= 1
        elif command == "asymptotics":
            assert len(payload["times"]) >= 1
            assert len(payload["forward"]["errors_v"]) == len(payload["times"])


@pytest.mark.filterwarnings("error")  # a numpy warning would reach stderr
@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(config=CONFIGS, command=COMMANDS)
def test_cli_contract_property(tmp_path, capsys, config, command):
    """Every input ends in a documented exit code, one stderr line for 2-4."""
    name, flags = command
    if name != "solve-velocity":
        flags = (write_config(tmp_path, config), *flags)
    code, out, err = run(capsys, name, *flags)
    assert code in range(5), (flags, code, err)
    if code >= 2:
        assert err.count("\n") == 1 and err.endswith("\n"), (flags, err)
    if code == 0:
        assert err == "", (flags, err)
        _check_stdout(name, out)
