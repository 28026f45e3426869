"""Per-layer timing: spans around calls into gzpot's modules.

The layers are the package's modules, params, potential, verify and cli.
Each traced function is replaced, for the traced part of a run only, by a
wrapper that records a span.  A wrapper is placed where each caller looks the
name up: the CLI reaches functions as ``pot.eval_fields``, while verify holds
its own imported names, so both module attributes are wrapped.  A name that
the program no longer defines is skipped.

A span's self time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

# (module, attribute, span name).  Wrapping params.validate also times the
# check inside expand_blocks, which looks the name up in its own module.
# load_parameter_set, nv_residual and sample_points are wrapped so that the
# CLI's self time is its own parsing and formatting.
TRACED = (
    ("par", "validate", "params.validate"),
    ("par", "load_parameter_set", "params.load_parameter_set"),
    ("par", "solve_velocity_inverse", "params.solve_velocity_inverse"),
    ("par", "forbidden_region_bound", "params.forbidden_region_bound"),
    ("pot", "PotentialEvaluator", "potential.PotentialEvaluator"),
    ("pot", "build_matrix", "potential.build_matrix"),
    ("pot", "log_det_derivative", "potential.log_det_derivative"),
    ("pot", "eval_fields", "potential.eval_fields"),
    ("ver", "eval_fields", "potential.eval_fields"),
    ("pot", "soliton_profile", "potential.soliton_profile"),
    ("ver", "soliton_profile", "potential.soliton_profile"),
    ("ver", "point_residuals", "verify.point_residuals"),
    ("ver", "nv_residual", "verify.nv_residual"),
    ("ver", "sample_points", "verify.sample_points"),
    ("ver", "asymptotic_error_sweep", "verify.asymptotic_error_sweep"),
)

COUNTED = (
    ("count.eval_fields", "potential.eval_fields"),
    ("count.point_residuals", "verify.point_residuals"),
    ("count.soliton_profile", "potential.soliton_profile"),
    ("count.log_det_derivative", "potential.log_det_derivative"),
    ("count.solve_velocity_inverse", "params.solve_velocity_inverse"),
)


class Stat:
    __slots__ = ("calls", "total", "self", "child_calls")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.child_calls = 0


class Tracer:
    """In-memory spans, summed per (phase, name).

    In a phase named "probe:<config>" each span's self time is also kept, so
    that the probe can report medians, which BLAS threading does not swing.
    """

    def __init__(self):
        self.stats: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.samples: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.phase = "workload"
        self._open: list[list] = []  # [child seconds, child calls] per open span
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name, fn, *args, **kwargs):
        frame = [0.0, 0]
        self._open.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            self._open.pop()
            st = self.stats[(self.phase, name)]
            st.calls += 1
            st.total += dur
            st.self += dur - frame[0]
            st.child_calls += frame[1]
            if self.phase.startswith("probe:"):
                self.samples[(self.phase, name)].append(dur - frame[0])
            if self._open:
                self._open[-1][0] += dur
                self._open[-1][1] += 1

    def install(self, gz) -> list[str]:
        """Wrap every traced name the program defines; return those it does not."""
        missing = []
        for mod_name, attr, name in TRACED:
            mod = getattr(gz, mod_name)
            orig = getattr(mod, attr, None)
            if orig is None:
                missing.append(f"{mod.__name__}.{attr}")
                continue
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrapper(name, orig))
        return missing

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def pick(self, name) -> Stat:
        """The workload's own calls of a function, or the probe's if it made none."""
        st = self.stats.get(("workload", name))
        if st is not None and st.calls:
            return st
        total = Stat()
        for (phase, key), st in self.stats.items():
            if key == name and phase.startswith("probe"):
                total.calls += st.calls
                total.total += st.total
                total.self += st.self
                total.child_calls += st.child_calls
        return total

    def probe_median_us(self, name, minus=None) -> float:
        """Median self time of name at the probe points, less that of minus,
        averaged over the probed configs."""
        diffs = []
        for (phase, key), xs in self.samples.items():
            if key == name:
                base = statistics.median(self.samples[(phase, minus)]) if minus else 0.0
                diffs.append(statistics.median(xs) - base)
        return 1e6 * statistics.mean(diffs) if diffs else 0.0


# Repetitions of the probe's per-point calls: enough that the differences
# taken between them (factor, trace2, trace5) are not lost in timer noise.
PROBE_REPEATS = 10
# The probe's own CLI calls, for workloads whose rounds make none.
PROBE_EVAL_SIDE = 3
PROBE_RESIDUAL_POINTS = 3


def probe(runner, workload) -> None:
    """Call each layer's public functions on the workload's own inputs.

    At each probe point the calls alternate, so that log_det_derivative (which
    no command calls), eval_fields and point_residuals are timed on the same
    points under the same conditions; their differences split a point's cost
    into factorization and trace contraction.  The probe also gives every
    other per-layer metric a value on workloads whose rounds do not reach it.
    """
    gz = runner.gz
    par, pot, ver = gz.par, gz.pot, gz.ver
    tracer = runner.tracer
    for cfg in workload.configs:
        points = workload.probe_points.get(cfg.name)
        if not points:
            continue
        tracer.phase = f"probe:{cfg.name}"
        ps = par.load_parameter_set(cfg.path)
        par.validate(ps)
        ev = pot.PotentialEvaluator(ps)
        pts = [pot.SpacetimePoint(*p) for p in points]
        for _ in range(PROBE_REPEATS):
            for pt in pts:
                pot.build_matrix(ev, pt)
                pot.log_det_derivative(ev, pt, ("z",))
                pot.eval_fields(ev, pt)
                ver.point_residuals(ev, pt)
        for xi in (0j, 0.5 - 0.5j, -1.0 + 0.5j):
            pot.soliton_profile(ev, 1, xi)
        c = complex(par.block_velocities(ps)[0])
        par.solve_velocity_inverse(c, ps.energy)
        par.forbidden_region_bound(c, ps.energy)
    tracer.phase = "probe"
    path = str(workload.configs[0].path)
    n = PROBE_EVAL_SIDE
    runner.cli(["eval", path, f"--grid=-1:1:{n},-1:1:{n}"])
    runner.cli(["residual", path, "--points", str(PROBE_RESIDUAL_POINTS)])
    runner.cli(["asymptotics", path, "--block", "1", "--times", "10,100", "--window-points", "5"])


def metrics(tracer: Tracer, rounds: int, eval_points: int, residual_points: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: self times per call in microseconds, counts per round.

    factor, trace2 and trace5 are differences of median self times (build_matrix
    excluded) between calls made at the same probe points.
    """

    def per_call(name, attr="total"):
        st = tracer.pick(name)
        return 1e6 * getattr(st, attr) / st.calls if st.calls else 0.0

    ldd = "potential.log_det_derivative"
    assemble = per_call("potential.build_matrix")
    sweep = tracer.pick("verify.asymptotic_error_sweep")

    def cli_self(name, points, probe_points):
        st = tracer.stats.get(("workload", name))
        if st is not None and st.calls and points:
            return 1e6 * st.self / points
        st = tracer.pick(name)
        return 1e6 * st.self / probe_points if st.calls else 0.0

    out = {
        "params.validate_us": (per_call("params.validate"), "us"),
        "params.velocity_inverse_us": (per_call("params.solve_velocity_inverse"), "us"),
        "params.forbidden_bound_us": (per_call("params.forbidden_region_bound"), "us"),
        "potential.evaluator_us": (per_call("potential.PotentialEvaluator"), "us"),
        "potential.assemble_us": (assemble, "us"),
        "potential.factor_us": (tracer.probe_median_us(ldd), "us"),
        "potential.trace2_us": (tracer.probe_median_us("potential.eval_fields", ldd), "us"),
        "potential.profile_us": (per_call("potential.soliton_profile"), "us"),
        "verify.residual_us": (per_call("verify.point_residuals"), "us"),
        "verify.trace5_us": (tracer.probe_median_us("verify.point_residuals", ldd), "us"),
        "verify.sweep_self_us": (
            1e6 * sweep.self / sweep.child_calls if sweep.child_calls else 0.0, "us"
        ),
        "cli.eval_self_us": (cli_self("cli.eval", eval_points, PROBE_EVAL_SIDE**2), "us"),
        "cli.residual_self_us": (
            cli_self("cli.residual", residual_points, PROBE_RESIDUAL_POINTS), "us"
        ),
    }
    for metric, name in COUNTED:
        st = tracer.stats.get(("workload", name))
        out[metric] = ((st.calls if st is not None else 0) / rounds, "count")
    return out
