import json
import math

import numpy as np
import pytest

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
    ],
    ids=lambda argv: " ".join(argv),
)
def test_solve_velocity_bad_input_exit_2_one_line(capsys, argv):
    code, out, err = run(capsys, "solve-velocity", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_eval_near_singular_exit_4_names_point(tmp_path, capsys, monkeypatch, near_singular_set):
    # The near-singular set breaks the gamma constraints, so no config file
    # can hold it; the loader and validation are bypassed to reach evaluation.
    monkeypatch.setattr(cli.par, "load_parameter_set", lambda path: near_singular_set)
    monkeypatch.setattr(cli.par, "validate", lambda ps: gz.ValidationReport(True, ()))
    code, out, err = run(capsys, "eval", "unused.json", "--grid=-1:1:3,-1:1:3")
    assert code == 4
    assert out == ""
    assert err.startswith("error: evaluation failed at (x1=0, x2=0, t=0): near-singular")
