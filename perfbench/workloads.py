"""Benchmark workloads: seeded inputs, the operations of one round, and the
checks every output must pass.

Each workload is a fixed list of operations, run as whole rounds.  Most go
through ``gzpot.cli.main`` in-process, exactly as a user's command line; the
velocity scan also calls the library for the steps no subcommand offers
(building a one-block set from a solved lambda, validating it, constructing
an evaluator and evaluating a short profile).

The checks compare against ``oracle`` (computations made apart from gzpot)
or against properties the method must have; none compares against stored
output of the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

WORKLOADS = ("small-n-grid", "many-block", "splitting-sweep", "velocity-scan")

EVAL_HEADER = "x1,x2,v,w_re,w_im,absdet"
GRID_LO, GRID_HI = -2.0, 2.0
GRID_T = 0.5
# |v - v_ref| <= FIELD_RTOL (1 + |v_ref|), likewise w; |det A| relative.
FIELD_RTOL = 1e-9
ABSDET_RTOL = 1e-9
EVOLUTION_MAX = 1e-8
CONSTRAINT_MAX = 1e-10
VELOCITY_RTOL = 1e-9
FORMULA_RTOL = 1e-12
TRAVEL_WAVE_TOL = 1e-9
# Splitting errors fall like 1/t and the probe like 1/t^2; across the decades
# t * error and t^2 * probe may vary by at most this factor.
DECAY_SPREAD = 2.0
WINDOW_RADIUS = 3.0
WINDOW_POINTS = 13
DECADES = tuple(10.0**k for k in range(1, 7))
FAR_TIME = 1e12
# Profile points of the one-block travel-wave check, and the time step.
PROFILE_XI = ((0.0, 0.0), (0.7, -0.4), (-1.1, 0.9))
PROFILE_DT = 0.05

SQRT2 = math.sqrt(2.0)
# The README two-block set and the acceptance-suite three-block set (E = 1).
TWO_BLOCK = ((SQRT2 + 0j, 1.0 + 0j), (2j, 0.5 + 0.5j))
THREE_BLOCK = TWO_BLOCK + ((1.5 * complex(math.cos(math.pi / 5), math.sin(math.pi / 5)), -0.3 + 0.8j),)


class CheckError(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the self-test runs the same workloads at tiny sizes."""

    grid: int = 41
    points: int = 100
    blocks: tuple[int, ...] = (1, 2, 4)
    many_grid: int = 9
    many_points: int = 40
    many_blocks: tuple[int, ...] = (8, 16)
    decades: tuple[float, ...] = DECADES
    scan_ok: int = 160
    scan_forbidden: int = 80
    oracle_points: int = 5


TINY = Sizes(
    grid=5, points=4, blocks=(1, 2), many_grid=3, many_points=2, many_blocks=(8,),
    decades=DECADES[:3], scan_ok=4, scan_forbidden=2, oracle_points=2,
)


@dataclass
class Result:
    code: int | None  # None when an exception escaped the program
    out: str
    err: str
    seconds: float
    data: dict = field(default_factory=dict)


class Runner:
    """Calls into gzpot, through the CLI or the library, optionally traced."""

    def __init__(self, gz, tracer=None):
        self.gz = gz
        self.tracer = tracer

    def cli(self, argv: list[str]) -> Result:
        out, err = io.StringIO(), io.StringIO()
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if self.tracer is None:
                    code = self.gz.cli.main(argv)
                else:
                    code = self.tracer.span("cli." + argv[0], self.gz.cli.main, argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback: the operation failed
                traceback.print_exc()
            seconds = time.perf_counter() - start
        return Result(code, out.getvalue(), err.getvalue(), seconds)


@dataclass(frozen=True)
class Config:
    name: str
    energy: float
    seeds: tuple[tuple[complex, complex], ...]
    path: Path

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return oracle.expand(self.energy, list(self.seeds))


def write_config(workdir: Path, name: str, energy: float, seeds) -> Config:
    path = workdir / f"{name}.json"
    blocks = [
        {"lambda": [lam.real, lam.imag], "gamma": [gam.real, gam.imag]} for lam, gam in seeds
    ]
    path.write_text(json.dumps({"E": energy, "blocks": blocks}), encoding="utf-8")
    return Config(name, energy, tuple(seeds), path)


def random_seeds(rng, n_blocks: int) -> list[tuple[complex, complex]]:
    """Valid block seeds: 1.25 <= |lambda| <= 2.5 or its reciprocal, uniform
    angle, gamma uniform on [-1, 1]^2, every derived lambda at least 0.15 from
    every other."""
    seeds: list[tuple[complex, complex]] = []
    taken: list[complex] = []
    while len(seeds) < n_blocks:
        rho = rng.uniform(1.25, 2.5)
        if rng.uniform() < 0.5:
            rho = 1.0 / rho
        ang = rng.uniform(0.0, 2.0 * math.pi)
        lam = complex(rho * math.cos(ang), rho * math.sin(ang))
        gam = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        members = oracle.block_lambdas(lam)
        if all(abs(a - b) >= 0.15 for a in members for b in taken):
            seeds.append((lam, gam))
            taken.extend(members)
    return seeds


def _expect_exit_0(res: Result) -> None:
    if res.code != 0:
        raise CheckError(f"exit code {res.code}: {res.err.strip()[-300:]}")


def _close(got, ref, rtol) -> bool:
    return abs(got - ref) <= rtol * (1.0 + abs(ref))


class EvalOp:
    """``gzpot eval`` on a square grid; fields checked against the oracle at a
    spread subset of the points."""

    kind = "eval"
    may_fail = False

    def __init__(self, cfg: Config, n: int, oracle_points: int):
        self.cfg = cfg
        self.n = n
        self.label = f"eval {cfg.name} {n}x{n}"
        self.argv = [
            "eval", str(cfg.path), f"--grid={GRID_LO!r}:{GRID_HI!r}:{n},{GRID_LO!r}:{GRID_HI!r}:{n}",
            f"--t={GRID_T!r}",
        ]
        axis = np.linspace(GRID_LO, GRID_HI, n)
        self.x1 = np.repeat(axis, n)
        self.x2 = np.tile(axis, n)
        self.oracle_rows = sorted({int(round(i)) for i in np.linspace(0, n * n - 1, oracle_points)})
        self._reference: dict[int, tuple[float, complex, float]] = {}

    def points(self):
        return [(float(self.x1[i]), float(self.x2[i]), GRID_T) for i in self.oracle_rows]

    def run(self, runner: Runner) -> Result:
        return runner.cli(self.argv)

    def reference(self, row: int):
        if row not in self._reference:
            lams, gams = self.cfg.arrays
            self._reference[row] = oracle.fields(
                self.cfg.energy, lams, gams, self.x1[row], self.x2[row], GRID_T
            )
        return self._reference[row]

    def check(self, res: Result, state: dict) -> int:
        _expect_exit_0(res)
        lines = res.out.splitlines()
        if not lines or lines[0] != EVAL_HEADER:
            raise CheckError("missing or wrong CSV header")
        rows = lines[1:]
        if len(rows) != self.n * self.n:
            raise CheckError(f"{len(rows)} rows, expected {self.n * self.n}")
        try:
            table = np.array([[float(x) for x in r.split(",")] for r in rows])
        except ValueError as exc:
            raise CheckError(f"unparsable row: {exc}") from None
        if table.shape != (len(rows), 6):
            raise CheckError("rows must have 6 columns")
        if not (np.array_equal(table[:, 0], self.x1) and np.array_equal(table[:, 1], self.x2)):
            raise CheckError("grid coordinates are not the requested row-major grid")
        if not np.all(np.isfinite(table)) or not np.all(table[:, 5] > 0):
            raise CheckError("non-finite field or non-positive |det A|")
        for row in self.oracle_rows:
            v_ref, w_ref, det_ref = self.reference(row)
            _, _, v, w_re, w_im, absdet = table[row]
            if not (_close(v, v_ref, FIELD_RTOL) and _close(complex(w_re, w_im), w_ref, FIELD_RTOL)):
                raise CheckError(
                    f"row {row}: (v, w) = ({v!r}, {complex(w_re, w_im)!r}), "
                    f"reference ({v_ref!r}, {w_ref!r})"
                )
            if abs(absdet - det_ref) > ABSDET_RTOL * det_ref:
                raise CheckError(f"row {row}: |det A| = {absdet!r}, reference {det_ref!r}")
        return len(rows)


class ResidualOp:
    """``gzpot residual``: the equation must hold on the requested sample."""

    kind = "residual"
    may_fail = False

    def __init__(self, cfg: Config, n_points: int, seed: int):
        self.cfg = cfg
        self.n_points = n_points
        self.seed = seed
        self.label = f"residual {cfg.name} {n_points} points"
        self.argv = ["residual", str(cfg.path), "--points", str(n_points), "--seed", str(seed)]

    def run(self, runner: Runner) -> Result:
        return runner.cli(self.argv)

    def check(self, res: Result, state: dict) -> int:
        _expect_exit_0(res)
        try:
            rep = json.loads(res.out)
            evo, con, pts, seed = (
                rep["evolution_residual"], rep["constraint_residual"], rep["points"], rep["seed"]
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckError(f"unreadable residual report: {exc!r}") from None
        if pts != self.n_points or pts < 1:
            raise CheckError(f"report covers {pts} points, {self.n_points} requested")
        if seed != self.seed:
            raise CheckError(f"report seed {seed}, requested {self.seed}")
        if not (0.0 <= evo <= EVOLUTION_MAX):
            raise CheckError(f"evolution residual {evo!r} above {EVOLUTION_MAX}")
        if not (0.0 <= con <= CONSTRAINT_MAX):
            raise CheckError(f"constraint residual {con!r} above {CONSTRAINT_MAX}")
        return pts


def window_size(radius: float = WINDOW_RADIUS, n: int = WINDOW_POINTS) -> int:
    g = np.linspace(-radius, radius, n)
    return int(sum(1 for a in g for b in g if a * a + b * b <= radius * radius))


def _strictly_decreasing(xs) -> bool:
    return all(a > b for a, b in zip(xs, xs[1:]))


class SweepOp:
    """``gzpot asymptotics`` for one block: errors and probe must decay at the
    rates the splitting implies, in both time directions."""

    kind = "sweep"
    may_fail = False

    def __init__(self, cfg: Config, block: int, times: tuple[float, ...]):
        self.cfg = cfg
        self.block = block
        self.times = tuple(times)
        self.label = f"asymptotics {cfg.name} block {block} t={self.times[0]:g}..{self.times[-1]:g}"
        self.argv = [
            "asymptotics", str(cfg.path), "--block", str(block),
            "--times", ",".join(repr(t) for t in self.times),
            "--window", repr(WINDOW_RADIUS), "--window-points", str(WINDOW_POINTS),
        ]
        # Profile evaluations, then co-moving and probe evaluations per time and sign.
        self.evaluations = window_size() * (1 + 4 * len(self.times))

    def run(self, runner: Runner) -> Result:
        return runner.cli(self.argv)

    def _report(self, res: Result) -> dict:
        try:
            rep = json.loads(res.out)
            tables = {d: rep[d] for d in ("forward", "backward")}
            block, times, vel, probe = rep["block"], rep["times"], rep["velocity"], rep["probe_velocity"]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckError(f"unreadable sweep report: {exc!r}") from None
        if block != self.block or times != list(self.times) or probe != [0.0, 0.0]:
            raise CheckError("report does not echo the requested block, times and probe")
        lam = self.cfg.seeds[self.block - 1][0]
        c_ref = oracle.velocity(lam, self.cfg.energy)
        if not _close(complex(*vel), c_ref, FORMULA_RTOL):
            raise CheckError(f"velocity {vel}, formula gives {c_ref!r}")
        for direction, table in tables.items():
            for key in ("errors_v", "errors_w", "probe_decay"):
                vals = table.get(key)
                if not isinstance(vals, list) or len(vals) != len(self.times):
                    raise CheckError(f"{direction}.{key}: expected {len(self.times)} values")
                if not all(isinstance(x, float) and math.isfinite(x) and x > 0 for x in vals):
                    raise CheckError(f"{direction}.{key}: values must be finite and positive")
        return rep

    def check(self, res: Result, state: dict) -> int:
        _expect_exit_0(res)
        rep = self._report(res)
        for direction in ("forward", "backward"):
            table = rep[direction]
            for key, power in (("errors_v", 1), ("errors_w", 1), ("probe_decay", 2)):
                vals = table[key]
                if not _strictly_decreasing(vals):
                    raise CheckError(f"{direction}.{key} does not strictly decrease: {vals}")
                scaled = [t**power * x for t, x in zip(self.times, vals)]
                if max(scaled) > DECAY_SPREAD * min(scaled):
                    raise CheckError(f"{direction}.{key}: t^{power} * value varies by more than {DECAY_SPREAD}x")
        state[(self.cfg.name, self.block)] = rep
        return self.evaluations


class FarTimeOp(SweepOp):
    """Block 1 of the two-block set at t = 1e12.

    Today this fails every time with a false near-singular diagnostic (exit
    code 4): the matrix is badly scaled, not singular.  The failure is counted
    and is not an error; once it succeeds, its errors must not exceed those of
    the same block at t = 1e6, which the round's decade sweep measured first.
    """

    may_fail = True

    def __init__(self, cfg: Config):
        super().__init__(cfg, 1, (FAR_TIME,))

    def check(self, res: Result, state: dict) -> int | None:
        if res.code == 4 and "near-singular" in res.err:
            return None
        _expect_exit_0(res)
        rep = self._report(res)
        near = state.get((self.cfg.name, self.block))
        if near is None:
            raise CheckError("no decade sweep of this block earlier in the round")
        for direction in ("forward", "backward"):
            for key in ("errors_v", "errors_w", "probe_decay"):
                if rep[direction][key][0] > near[direction][key][-1]:
                    raise CheckError(
                        f"{direction}.{key} at t = {FAR_TIME:g} exceeds its value at "
                        f"t = {near['times'][-1]:g}"
                    )
        return self.evaluations


@dataclass(frozen=True)
class Target:
    c: complex
    energy: float
    gamma: complex
    lam: complex | None  # the lambda that attains c; None inside the forbidden region

    @property
    def attainable(self) -> bool:
        return self.lam is not None


class ScanOp:
    """``gzpot solve-velocity`` for one target, then, for an attainable one,
    the one-block set built from the solved lambda: validated, turned into an
    evaluator and evaluated along a short profile at two times."""

    kind = "scan"
    may_fail = False

    def __init__(self, target: Target):
        self.target = target
        c = target.c
        self.label = f"solve-velocity c={c.real:.6g}{c.imag:+.6g}i E={target.energy:.6g}"
        self.argv = ["solve-velocity", f"--E={target.energy!r}", f"--c={c.real!r},{c.imag!r}"]

    def run(self, runner: Runner) -> Result:
        start = time.perf_counter()
        res = runner.cli(self.argv)
        if res.code == 0:
            try:
                self._profile(runner, res)
            except Exception as exc:  # reported by check(), as a wrong output
                res.data["error"] = repr(exc)
        res.seconds = time.perf_counter() - start
        return res

    def _profile(self, runner: Runner, res: Result) -> None:
        payload = json.loads(res.out)
        res.data["payload"] = payload
        if payload.get("status") != "ok":
            return
        par, pot = runner.gz.par, runner.gz.pot
        tg = self.target
        lam = complex(*payload["lambdas"][0])
        ps = par.expand_blocks(tg.energy, [par.BlockSeed(lam, tg.gamma)], check=False)
        res.data["report"] = par.validate(ps)
        ev = pot.PotentialEvaluator(ps)
        pairs = []
        for x1, x2 in PROFILE_XI:
            here = pot.eval_fields(ev, pot.SpacetimePoint(x1, x2, 0.0))
            there = pot.eval_fields(
                ev, pot.SpacetimePoint.from_z(complex(x1, x2) + tg.c * PROFILE_DT, PROFILE_DT)
            )
            pairs.append((here.v, here.w, there.v, there.w))
        res.data["profile"] = pairs

    def check(self, res: Result, state: dict) -> int:
        _expect_exit_0(res)
        if "error" in res.data:
            raise CheckError(f"one-block follow-up failed: {res.data['error']}")
        payload = res.data.get("payload")
        tg = self.target
        status = payload.get("status") if isinstance(payload, dict) else None
        if tg.attainable:
            if status != "ok":
                raise CheckError(f"status {status!r} for a velocity attained by a valid lambda")
            self._check_solution(payload, res.data)
        else:
            if status != "forbidden":
                raise CheckError(f"status {status!r} for a velocity inside the forbidden region")
            self._check_forbidden(payload)
        return 1

    def _check_solution(self, payload: dict, data: dict) -> None:
        tg = self.target
        try:
            lams = [complex(re, im) for re, im in payload["lambdas"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckError(f"unreadable lambda set: {exc!r}") from None
        if len(lams) != 4 or not abs(lams[0]) > 1.0:
            raise CheckError("expected four lambdas, the first with |lambda| > 1")
        members = oracle.block_lambdas(lams[0])
        if any(min(abs(m - l) for l in lams) > VELOCITY_RTOL * (1.0 + abs(m)) for m in members):
            raise CheckError("lambda set is not {l, -l, 1/conj(l), -1/conj(l)}")
        c_back = oracle.velocity(lams[0], tg.energy)
        if abs(c_back - tg.c) > VELOCITY_RTOL * abs(tg.c):
            raise CheckError(f"round trip gives c = {c_back!r}, target {tg.c!r}")
        if oracle.inside_forbidden(tg.c, tg.energy):
            raise CheckError("solved a velocity that lies inside the forbidden region")
        if not data["report"].ok:
            raise CheckError(f"one-block set fails validation: {data['report'].violations}")
        for v0, w0, v1, w1 in data["profile"]:
            if not (_close(v1, v0, TRAVEL_WAVE_TOL) and _close(w1, w0, TRAVEL_WAVE_TOL)):
                raise CheckError(f"one-block field is not a travel wave: v {v0!r} -> {v1!r}")

    def _check_forbidden(self, payload: dict) -> None:
        tg = self.target
        try:
            bound, abs_c = float(payload["bound"]), float(payload["abs_c"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckError(f"unreadable forbidden report: {exc!r}") from None
        e = tg.energy
        if not _close(abs_c, abs(tg.c), FORMULA_RTOL):
            raise CheckError(f"abs_c {abs_c!r}, |c| = {abs(tg.c)!r}")
        if not (6.0 * e * (1 - 1e-12) <= bound <= 18.0 * e * (1 + 1e-12)) or bound < abs(tg.c):
            raise CheckError(f"bound {bound!r} outside [6E, 18E] or below |c| = {abs(tg.c)!r}")
        if not oracle.inside_forbidden(tg.c, e):
            raise CheckError("reported forbidden, but lies outside the three-cusped curve")
        if abs(tg.c) > 0 and not oracle.on_forbidden_boundary(tg.c * (bound / abs(tg.c)), e):
            raise CheckError(f"bound {bound!r} is not where the ray through c leaves the region")


def attainable_target(rng) -> Target:
    """Velocity of a random valid lambda: 1.1 <= |lambda| <= 3 or its reciprocal."""
    rho = rng.uniform(1.1, 3.0)
    if rng.uniform() < 0.5:
        rho = 1.0 / rho
    ang = rng.uniform(0.0, 2.0 * math.pi)
    energy = float(rng.uniform(0.5, 2.0))
    lam = complex(rho * math.cos(ang), rho * math.sin(ang))
    gam = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return Target(oracle.velocity(lam, energy), energy, gam, lam)


def forbidden_target(rng) -> Target:
    energy = float(rng.uniform(0.5, 2.0))
    return Target(oracle.random_forbidden_target(rng, energy), energy, 0j, None)


@dataclass
class Workload:
    name: str
    ops: list
    configs: list[Config]
    # First point evaluated after set-up, and the scan target set-up solves first.
    first_point: tuple[float, float, float]
    first_target: Target | None = None
    # Points at which the traced run probes each layer, per config.
    probe_points: dict[str, list[tuple[float, float, float]]] = field(default_factory=dict)

    def inputs_digest(self) -> str:
        h = zlib.crc32(json.dumps([op.argv for op in self.ops]).encode())
        for cfg in self.configs:
            h = zlib.crc32(cfg.path.read_bytes(), h)
        return f"{h:08x}"


def _rng(name: str, seed: int):
    return np.random.default_rng([seed % 2**32, zlib.crc32(name.encode())])


def _companions(present, workdir: Path, cfg: Config, sizes: Sizes) -> list:
    """One light operation of each kind the workload does not run by itself, so
    that every workload measures every end-to-end rate.  Apart from cfg, their
    inputs do not depend on the seed, so they are the same job on every run."""
    rng = _rng("companion", 0)
    ops: list = []
    if "eval" not in present:
        ops.append(EvalOp(cfg, 13, min(3, sizes.oracle_points)))
    if "residual" not in present:
        ops.append(ResidualOp(cfg, min(40, sizes.points), int(rng.integers(2**31))))
    if "sweep" not in present:
        two = write_config(workdir, "two-block", 1.0, TWO_BLOCK)
        ops.append(SweepOp(two, 2, DECADES[:3]))
    if "scan" not in present:
        targets = [attainable_target(rng) for _ in range(min(24, sizes.scan_ok))]
        targets += [forbidden_target(rng) for _ in range(min(8, sizes.scan_forbidden))]
        ops.extend(ScanOp(t) for t in targets)
    return ops


def _grid_workload(name, seed, workdir, blocks, n, n_points, sizes) -> Workload:
    rng = _rng(name, seed)
    cfgs = [write_config(workdir, f"n{k}", 1.0, random_seeds(rng, k)) for k in blocks]
    ops: list = []
    for cfg in cfgs:
        ops.append(EvalOp(cfg, n, sizes.oracle_points))
        ops.append(ResidualOp(cfg, n_points, int(rng.integers(2**31))))
    ops += _companions({"eval", "residual"}, workdir, cfgs[0], sizes)
    probes = {op.cfg.name: op.points()[:3] for op in ops if isinstance(op, EvalOp)}
    return Workload(name, ops, _configs(ops), (GRID_LO, GRID_LO, GRID_T), probe_points=probes)


def _configs(ops) -> list[Config]:
    seen: dict[str, Config] = {}
    for op in ops:
        cfg = getattr(op, "cfg", None)
        if cfg is not None:
            seen.setdefault(cfg.name, cfg)
    return list(seen.values())


def build(name: str, seed: int, workdir: Path, sizes: Sizes = Sizes()) -> Workload:
    """The operations of one round of the named workload, with their inputs
    written under workdir; the same seed gives the same inputs."""
    if name == "small-n-grid":
        return _grid_workload(name, seed, workdir, sizes.blocks, sizes.grid, sizes.points, sizes)
    if name == "many-block":
        return _grid_workload(
            name, seed, workdir, sizes.many_blocks, sizes.many_grid, sizes.many_points, sizes
        )
    if name == "splitting-sweep":
        two = write_config(workdir, "two-block", 1.0, TWO_BLOCK)
        three = write_config(workdir, "three-block", 1.0, THREE_BLOCK)
        ops: list = [SweepOp(cfg, k, sizes.decades) for cfg in (two, three) for k in range(1, len(cfg.seeds) + 1)]
        ops.append(FarTimeOp(two))
        ops += _companions({"sweep"}, workdir, two, sizes)
        # Co-moving points of block 1 at t = 1000, where the sweep spends its time.
        probes = {}
        for cfg in (two, three):
            c = oracle.velocity(cfg.seeds[0][0], cfg.energy)
            probes[cfg.name] = [(c.real * 1e3 + dx, c.imag * 1e3, 1e3) for dx in (0.0, 1.0, -1.5)]
        return Workload(name, ops, _configs(ops), (0.0, 0.0, 0.0), probe_points=probes)
    if name == "velocity-scan":
        rng = _rng(name, seed)
        targets = [attainable_target(rng) for _ in range(sizes.scan_ok)]
        targets += [forbidden_target(rng) for _ in range(sizes.scan_forbidden)]
        order = rng.permutation(len(targets))
        targets = [targets[i] for i in order]
        first_ok = next(t for t in targets if t.attainable)
        one = write_config(workdir, "one-block", first_ok.energy, [(first_ok.lam, first_ok.gamma)])
        ops = [ScanOp(t) for t in targets]
        ops += _companions({"scan"}, workdir, one, sizes)
        probes = {"one-block": [(x1, x2, 0.0) for x1, x2 in PROFILE_XI]}
        return Workload(
            name, ops, _configs(ops), (0.0, 0.0, 0.0), first_target=targets[0], probe_points=probes
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")

