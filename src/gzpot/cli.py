"""Command-line front end.

Subcommands: validate, eval, velocity, solve-velocity, residual, asymptotics.
Exit codes: 0 success, 1 validation failure, 2 parse error, 3 velocity within
rounding of the forbidden boundary, 4 evaluation diagnostic.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
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

VELOCITY_SPREAD_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid (endpoints included) at one time."""

    x1_min: float
    x1_max: float
    n1: int
    x2_min: float
    x2_max: float
    n2: int
    t: float = 0.0

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("grid counts must be >= 2")
        spans = (self.x1_max - self.x1_min, self.x2_max - self.x2_min)
        if not all(math.isfinite(s) for s in spans):
            raise ValueError("grid ranges must be finite")
        if not (self.x1_min < self.x1_max and self.x2_min < self.x2_max):
            raise ValueError("grid ranges must satisfy min < max")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.x1_min, self.x1_max, self.n1),
            np.linspace(self.x2_min, self.x2_max, self.n2),
        )


def parse_grid(text: str, t: float) -> GridSpec:
    """Parse "x1min:x1max:n1,x2min:x2max:n2"."""
    try:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError
        (a0, a1, an), (b0, b1, bn) = (p.split(":") for p in parts)
        return GridSpec(float(a0), float(a1), int(an), float(b0), float(b1), int(bn), t)
    except ValueError as exc:
        detail = f": {exc}" if str(exc) else ""
        raise ValueError(
            f"invalid grid spec {text!r}, expected x1min:x1max:n1,x2min:x2max:n2{detail}"
        ) from None


def parse_complex_pair(text: str) -> complex:
    """Parse "RE,IM" into a complex number."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected RE,IM, got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _dump_json(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load(path: str) -> tuple[par.ParameterSet | None, int]:
    """Read and schema-check a config; on failure print why and return the exit code."""
    try:
        ps = par.load_parameter_set(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    except json.JSONDecodeError as exc:
        print(
            f"error: {path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return None, EXIT_PARSE
    except par.InvalidParameterSetError as exc:
        # A seed the expansion cannot even derive from (zero lambda) is a
        # constraint violation, not a file problem.
        for msg in exc.report.violations:
            print(f"invalid: {msg}", file=sys.stderr)
        return None, EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    return ps, EXIT_OK


def _load_validated(path: str) -> tuple[par.ParameterSet | None, int]:
    ps, code = _load(path)
    if ps is None:
        return None, code
    report = par.validate(ps)
    if not report.ok:
        for msg in report.violations:
            print(f"invalid: {msg}", file=sys.stderr)
        return None, EXIT_VALIDATION
    return ps, EXIT_OK


def cmd_validate(args) -> int:
    ps, code = _load(args.config)
    if ps is None:
        return code
    report = par.validate(ps)
    if report.ok:
        print(f"ok: {ps.n_blocks} block(s), E = {_fmt(ps.energy)}")
        return EXIT_OK
    for msg in report.violations:
        print(f"violation: {msg}")
    return EXIT_VALIDATION


def cmd_eval(args) -> int:
    ps, code = _load_validated(args.config)
    if ps is None:
        return code
    if not math.isfinite(args.t):
        print(f"error: --t must be finite, got {args.t!r}", file=sys.stderr)
        return EXIT_PARSE
    try:
        grid = parse_grid(args.grid, args.t)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    x1s, x2s = grid.axes()
    x1 = np.repeat(x1s, x2s.size)
    x2 = np.tile(x2s, x1s.size)
    z = np.empty(x1.size, dtype=complex)
    z.real, z.imag = x1, x2
    try:
        v, w, absdet, _, _ = pot._fields(pot.PotentialEvaluator(ps), z, np.full(z.size, grid.t))
    except pot.EvaluationError as exc:
        print(f"error: evaluation failed at {exc.point}: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    row = ",".join(["{:.17g}"] * 6).format
    columns = (x1, x2, v, w.real, w.imag, absdet)
    lines = ["x1,x2,v,w_re,w_im,absdet"]
    lines.extend(row(*vals) for vals in zip(*(col.tolist() for col in columns)))
    text = "\n".join(lines) + "\n"
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK


def cmd_velocity(args) -> int:
    ps, code = _load_validated(args.config)
    if ps is None:
        return code
    spread = par.velocity_spread(ps)
    if spread > VELOCITY_SPREAD_TOL:
        print(
            f"internal error: within-block velocity mismatch {spread:.3e} "
            f"exceeds {VELOCITY_SPREAD_TOL:g}",
            file=sys.stderr,
        )
        return EXIT_DIAGNOSTIC
    cs = par.block_velocities(ps)
    _dump_json([[c.real + 0.0, c.imag + 0.0] for c in cs], None)
    return EXIT_OK


def cmd_solve_velocity(args) -> int:
    try:
        c = parse_complex_pair(args.c)
    except ValueError as exc:
        print(f"error: --c: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        lams = par.solve_velocity_inverse(c, args.E)
    except ValueError as exc:  # E not positive and finite, c not finite, overflow
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except par.VelocityInverseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUNDARY
    if lams is None:
        payload = {
            "status": "forbidden",
            "bound": par.forbidden_region_bound(c, args.E),
            "abs_c": abs(c),
        }
    else:
        payload = {"status": "ok", "lambdas": [[l.real + 0.0, l.imag + 0.0] for l in lams]}
    _dump_json(payload, None)
    return EXIT_OK


def cmd_residual(args) -> int:
    ps, code = _load_validated(args.config)
    if ps is None:
        return code
    if args.points < 1:
        print(f"error: --points must be at least 1, got {args.points}", file=sys.stderr)
        return EXIT_PARSE
    if args.seed < 0:
        print(f"error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_PARSE
    ev = pot.PotentialEvaluator(ps)
    points = ver.sample_points(args.points, args.seed)
    try:
        report = ver.nv_residual(ev, points, seed=args.seed)
    except pot.EvaluationError as exc:
        print(f"error: evaluation diagnostic: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    _dump_json(report.to_json_dict(), None)
    return EXIT_OK


def cmd_asymptotics(args) -> int:
    ps, code = _load_validated(args.config)
    if ps is None:
        return code
    ev = pot.PotentialEvaluator(ps)
    try:
        times = [float(t) for t in args.times.split(",")]
    except ValueError:
        print(f"error: --times: expected comma-separated numbers, got {args.times!r}", file=sys.stderr)
        return EXIT_PARSE
    probe = 0j
    if args.probe is not None:
        try:
            probe = parse_complex_pair(args.probe)
        except ValueError as exc:
            print(f"error: --probe: {exc}", file=sys.stderr)
            return EXIT_PARSE
    try:
        report = ver.asymptotic_error_sweep(
            ev,
            args.block,
            times,
            window_radius=args.window,
            window_points=args.window_points,
            probe_velocity=probe,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except pot.EvaluationError as exc:
        print(f"error: evaluation diagnostic: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    _dump_json(report.to_json_dict(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
