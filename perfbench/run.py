"""Benchmark gzpot end to end (--trace 0) or layer by layer (--trace 1).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gzpot is imported from ./src and
driven in this one process through ``gzpot.cli.main``.  The benchmark sets no
BLAS or OpenMP variable; it records the ones it finds.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import layers
import workloads
from workloads import CheckError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
THREAD_VARS = re.compile(r"^(OMP|OPENBLAS|GOTO|MKL|BLIS|VECLIB|ACCELERATE|NUMEXPR)_")


class Round:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # (kind, seconds, work) of each operation, in the workload's order.
        self.ops: list[tuple[str, float, int]] = []

    @property
    def busy(self) -> float:
        return sum(s for _, s, _ in self.ops)

    def totals(self, index: int) -> dict[str, float]:
        """Seconds (index 1) or work (index 2) summed per kind of operation."""
        out: dict[str, float] = defaultdict(int)
        for op in self.ops:
            out[op[0]] += op[index]
        return dict(out)


def run_round(workload, runner) -> Round:
    rnd = Round()
    state: dict = {}
    for op in workload.ops:
        res = op.run(runner)
        rnd.attempted += 1
        try:
            work = op.check(res, state)
        except CheckError as exc:
            rnd.failed += 1
            rnd.errors.append(f"{op.label}: {exc}")
            work = 0
        if work is None:  # the known far-time failure
            rnd.failed += 1
            work = 0
        rnd.ops.append((op.kind, res.seconds, work))
    return rnd


def run_rounds(workload, runner, seconds: float) -> list[Round]:
    """Whole rounds until the time is up; stops early after a wrong output."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload, runner))
        if rounds[-1].errors:
            break
    return rounds


def fresh_interpreter(args: list[str]) -> tuple[float, str]:
    """Seconds from spawning an interpreter to its first line of output, and that line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline().strip()
    elapsed = time.perf_counter() - start
    _, err = proc.communicate(timeout=120)
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-500:]}")
    return elapsed, line


def setup_seconds(workload) -> list[float]:
    plan = {"configs": [str(c.path) for c in workload.configs], "point": list(workload.first_point)}
    tg = workload.first_target
    if tg is not None:
        plan["target"] = {"c": [tg.c.real, tg.c.imag], "E": tg.energy, "gamma": [tg.gamma.real, tg.gamma.imag]}
    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, line = fresh_interpreter(["setup", str(SRC), json.dumps(plan)])
        if line != "ready":
            raise RuntimeError(f"set-up probe printed {line!r}")
        times.append(elapsed)
    return times


def import_seconds() -> list[float]:
    return [float(fresh_interpreter(["import", str(SRC)])[1]) for _ in range(IMPORT_REPEATS)]


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS would use, asked of the library itself."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "libscipy_openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[f"{pkg.__name__}:{Path(path).name}"] = int(fn())
                    break
    return found


def header(gz, args) -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name") + " " + str(deps[k].get("version")) for k in ("blas", "lapack")}
        blas["config"] = deps["blas"].get("openblas configuration")
    except (KeyError, TypeError, AttributeError) as exc:
        blas = {"unknown": repr(exc)}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if THREAD_VARS.match(k)},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gzpot": getattr(gz.package, "__version__", "unknown"),
        "machine": platform.machine(),
    }


def median_rate(rounds: list[Round], kind: str) -> float:
    """Work per second of one kind of operation in a median round: each
    operation's median time and work over the rounds, summed.  A stall of the
    shared machine, or the first round's warming of caches, slows a few
    operations of a run; medians per operation ignore them, where a total
    over all rounds does not."""
    seconds = work = 0.0
    for samples in zip(*(r.ops for r in rounds)):
        if samples[0][0] == kind:
            seconds += statistics.median(s for _, s, _ in samples)
            work += statistics.median(w for _, _, w in samples)
    return work / seconds if seconds > 0 else 0.0


def end_to_end(workload, rounds, setup) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "eval_pts_per_s": (median_rate(rounds, "eval"), "1/s"),
        "residual_pts_per_s": (median_rate(rounds, "residual"), "1/s"),
        "sweep_pts_per_s": (median_rate(rounds, "sweep"), "1/s"),
        "scan_ops_per_s": (median_rate(rounds, "scan"), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(gz, workload, seconds) -> tuple[list[Round], dict, dict]:
    """Untraced and traced rounds in turn, so both see the same machine, then
    the layer probe."""
    imports = import_seconds()
    tracer = layers.Tracer()
    plain: list[Round] = []
    traced: list[Round] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_round(workload, workloads.Runner(gz)))
        missing = tracer.install(gz)
        try:
            traced.append(run_round(workload, workloads.Runner(gz, tracer)))
        finally:
            tracer.uninstall()
        if plain[-1].errors or traced[-1].errors:
            break
    tracer.install(gz)
    try:
        layers.probe(workloads.Runner(gz, tracer), workload)
    finally:
        tracer.uninstall()
    per_layer = layers.metrics(
        tracer, len(traced),
        eval_points=sum(r.totals(2).get("eval", 0) for r in traced),
        residual_points=sum(r.totals(2).get("residual", 0) for r in traced),
    )
    overhead = sum(r.busy for r in traced) / sum(r.busy for r in plain) - 1
    per_layer = {
        "import.gzpot_s": (statistics.median(imports), "s"),
        **per_layer,
        "trace.overhead_pct": (100.0 * overhead, "%"),
    }
    extra = {
        "import_samples_s": imports,
        "untraced_rounds": len(plain),
        "traced_rounds": len(traced),
        "missing_names": missing,
        "spans": {
            f"{phase}:{name}": [st.calls, st.total, st.self, st.child_calls]
            for (phase, name), st in sorted(tracer.stats.items())
        },
    }
    return plain + traced, per_layer, extra


def load_gzpot():
    sys.path.insert(0, str(SRC))
    import gzpot
    from gzpot import cli, params, potential, verify

    return SimpleNamespace(package=gzpot, cli=cli, par=params, pot=potential, ver=verify)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gzpot" / "__init__.py").is_file():
        print(f"error: no gzpot sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    gz = load_gzpot()
    head = header(gz, args)
    print(json.dumps({"header": head}), flush=True)

    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        head["inputs_crc32"] = wl.inputs_digest()
        record = {"header": head}
        if args.trace:
            rounds, metrics, record["trace"] = traced_run(gz, wl, args.seconds)
        else:
            setup = setup_seconds(wl)
            rounds = run_rounds(wl, workloads.Runner(gz), args.seconds)
            metrics = end_to_end(wl, rounds, setup)
            record["setup_samples_s"] = setup
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [e for r in rounds for e in r.errors]
    for e in errors:
        print(f"wrong output: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["rounds"] = [
        {"attempted": r.attempted, "failed": r.failed, "seconds": r.totals(1),
         "work": r.totals(2), "op_seconds": [s for _, s, _ in r.ops]}
        for r in rounds
    ]
    record["errors"] = errors
    record["result"] = result
    records = HERE / "records"
    records.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
