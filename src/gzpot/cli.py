"""Command-line front end.

Subcommands: validate, eval, velocity, solve-velocity, residual, asymptotics.
Each command loads, calls the library and writes; it raises on failure, and
main alone maps the exception to the exit code and one stderr line:

    1  InvalidParameterSetError   "invalid: <msg>", one line per violation
    2  ValueError, OSError        "error: <msg>"  (parse error, bad input)
    3  VelocityInverseError       "error: <msg>"  (c within rounding of the
                                  forbidden boundary)
    4  EvaluationError            "error: evaluation failed at <point>: <msg>"

Exit code 0 is success; validate reports violations on stdout and exits 1.
The argument parser is built once per process, on the first call to main.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import params as par
from . import potential as pot
from . import verify as ver

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_BOUNDARY = 3
EXIT_DIAGNOSTIC = 4


def parse_grid(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse "x1min:x1max:n1,x2min:x2max:n2" into the two axes, endpoints included."""
    try:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError
        (a0, a1, an), (b0, b1, bn) = (p.split(":") for p in parts)
        axes = (float(a0), float(a1), int(an)), (float(b0), float(b1), int(bn))
        if any(n < 2 for _, _, n in axes):
            raise ValueError("grid counts must be >= 2")
        if not all(math.isfinite(hi - lo) for lo, hi, _ in axes):
            raise ValueError("grid ranges must be finite")
        if not all(lo < hi for lo, hi, _ in axes):
            raise ValueError("grid ranges must satisfy min < max")
    except ValueError as exc:
        detail = f": {exc}" if str(exc) else ""
        raise ValueError(
            f"invalid grid spec {text!r}, expected x1min:x1max:n1,x2min:x2max:n2{detail}"
        ) from None
    return np.linspace(*axes[0]), np.linspace(*axes[1])


def _pair(flag: str, text: str) -> complex:
    """Parse "RE,IM" into a complex number, with the flag named in front of its ValueError."""
    try:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected RE,IM, got {text!r}")
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _times(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"--times: expected comma-separated numbers, got {text!r}") from None


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load(path: str) -> par.ParameterSet:
    """Read and schema-check a config; read, JSON and schema errors name the path."""
    try:
        return par.load_parameter_set(path)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except par.InvalidParameterSetError:
        # A seed the expansion cannot even derive from (zero lambda) is a
        # constraint violation, not a file problem.
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_validated(path: str) -> par.ParameterSet:
    ps = _load(path)
    report = par.validate(ps)
    if not report.ok:
        raise par.InvalidParameterSetError(report)
    return ps


def cmd_validate(args) -> int:
    ps = _load(args.config)
    report = par.validate(ps)
    if report.ok:
        print(f"ok: {ps.n_blocks} block(s), E = {ps.energy:.17g}")
        return EXIT_OK
    for msg in report.violations:
        print(f"violation: {msg}")
    return EXIT_VALIDATION


def cmd_eval(args) -> int:
    ps = _load_validated(args.config)
    if not math.isfinite(args.t):
        raise ValueError(f"--t must be finite, got {args.t!r}")
    x1s, x2s = parse_grid(args.grid)
    x1 = np.repeat(x1s, x2s.size)
    x2 = np.tile(x2s, x1s.size)
    z = np.empty(x1.size, dtype=complex)
    z.real, z.imag = x1, x2
    v, w, absdet, _, _ = pot.fields(pot.PotentialEvaluator(ps), z, np.full(z.size, args.t))
    row = ",".join(["{}", "{}"] + ["{:.17g}"] * 4).format
    # Each axis value is formatted once: row-major product order is x1's repeat, x2's tile.
    axes = itertools.product(*([f"{x:.17g}" for x in xs.tolist()] for xs in (x1s, x2s)))
    columns = (v, w.real, w.imag, absdet)
    lines = ["x1,x2,v,w_re,w_im,absdet"]
    lines.extend(row(*xs, *vals) for xs, vals in zip(axes, zip(*(c.tolist() for c in columns))))
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_velocity(args) -> int:
    cs = par.block_velocities(_load_validated(args.config))
    _write(_json([[c.real + 0.0, c.imag + 0.0] for c in cs]), None)
    return EXIT_OK


def cmd_solve_velocity(args) -> int:
    c = _pair("--c", args.c)
    lams = par.solve_velocity_inverse(c, args.E)
    if lams is None:
        bound = par.forbidden_region_bound(c, args.E)
        payload = {"status": "forbidden", "bound": bound, "abs_c": abs(c)}
    else:
        payload = {"status": "ok", "lambdas": [[l.real + 0.0, l.imag + 0.0] for l in lams]}
    _write(_json(payload), None)
    return EXIT_OK


def cmd_residual(args) -> int:
    ps = _load_validated(args.config)
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    ev = pot.PotentialEvaluator(ps)
    points = ver.sample_points(args.points, args.seed)
    report = ver.nv_residual(ev, points, seed=args.seed)
    _write(_json(report.to_json_dict()), None)
    return EXIT_OK


def cmd_asymptotics(args) -> int:
    ps = _load_validated(args.config)
    if not math.isfinite(args.window):
        raise ValueError(f"--window must be finite, got {args.window!r}")
    ev = pot.PotentialEvaluator(ps)
    times = _times(args.times)
    probe = 0j if args.probe is None else _pair("--probe", args.probe)
    report = ver.asymptotic_error_sweep(ev, args.block, times, args.window, args.window_points, probe)
    _write(_json(report.to_json_dict()), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built on the first call, the same object after."""
    parser = argparse.ArgumentParser(
        prog="gzpot",
        description="Rational Novikov-Veselov solitons: evaluation, velocities, residuals, splitting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a parameter-set file against the constraints")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eval", help="evaluate v, w on a grid; CSV output")
    p.add_argument("config")
    p.add_argument("--grid", required=True, help="x1min:x1max:n1,x2min:x2max:n2")
    p.add_argument("--t", type=float, default=0.0, help="time slice (default 0)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("velocity", help="block travel-wave velocities as JSON")
    p.add_argument("config")
    p.set_defaults(func=cmd_velocity)

    p = sub.add_parser("solve-velocity", help="lambda set for a prescribed velocity")
    p.add_argument("--E", type=float, required=True, help="energy, E > 0")
    p.add_argument("--c", required=True, help="velocity as RE,IM")
    p.set_defaults(func=cmd_solve_velocity)

    p = sub.add_parser("residual", help="equation residuals over a random sample")
    p.add_argument("config")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("asymptotics", help="large-time splitting errors for one block")
    p.add_argument("config")
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--times", required=True, help="comma-separated positive times")
    p.add_argument("--window", type=float, default=3.0, help="profile window radius")
    p.add_argument("--window-points", type=int, default=13, help="grid points per axis")
    p.add_argument("--probe", default=None, help="probe velocity RE,IM (default 0,0)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_asymptotics)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and map its failure to the exit code (see the module docstring)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except par.InvalidParameterSetError as exc:  # a ValueError: before that clause
        for msg in exc.report.violations:
            print(f"invalid: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    except pot.EvaluationError as exc:
        print(f"error: evaluation failed at {exc.point}: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except par.VelocityInverseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUNDARY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
