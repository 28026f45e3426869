"""Self-test of the output checks.

    python3 perfbench/selftest.py

Runs one round of every workload at tiny sizes, which must pass its checks,
then feeds each check deliberately corrupted copies of the real outputs,
which it must reject.  Exits 1 if a real output is rejected or a corrupted
one accepted, so no check is vacuous.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import run
import workloads
from workloads import CheckError, EvalOp, FarTimeOp, ResidualOp, ScanOp, SweepOp


def _edit_csv(res, fn):
    lines = res.out.splitlines()
    rows = [[float(x) for x in r.split(",")] for r in lines[1:]]
    rows = fn(rows)
    res.out = "\n".join([lines[0]] + [",".join(repr(x) for x in r) for r in rows]) + "\n"


def _edit_json(res, fn):
    rep = json.loads(res.out)
    fn(rep)
    res.out = json.dumps(rep)


def _shift_column(col, delta):
    def fn(rows):
        for r in rows:
            r[col] += delta
        return rows
    return fn


def _scale_column(col, factor):
    def fn(rows):
        for r in rows:
            r[col] *= factor
        return rows
    return fn


def _set(key, value):
    return lambda rep: rep.__setitem__(key, value)


def _table(direction, key, fn):
    def edit(rep):
        rep[direction][key] = fn(rep[direction][key])
    return edit


def _far_success(scale):
    """A far-time report that succeeds, with errors `scale` times those at 1e6."""
    def make(res, state, op):
        near = state[(op.cfg.name, op.block)]
        rep = copy.deepcopy(near)
        rep["times"] = [workloads.FAR_TIME]
        for d in ("forward", "backward"):
            for k in ("errors_v", "errors_w", "probe_decay"):
                rep[d][k] = [near[d][k][-1] * scale]
        res.code, res.out, res.err = 0, json.dumps(rep), ""
    return make


def _scan_edit(fn):
    def edit(res, state, op):
        fn(res.data["payload"], res.data)
    return edit


def _lambda_nudge(payload, data):
    payload["lambdas"][0][0] *= 1.0 + 1e-6


def _profile_nudge(payload, data):
    v0, w0, v1, w1 = data["profile"][0]
    data["profile"][0] = (v0, w0, v1 + 1e-6 * (1.0 + abs(v1)), w1)


# (op class, case, corruption): the corruption edits a copy of a real result.
# A plain function edits res.out; a three-argument one gets (res, state, op).
CORRUPTIONS = [
    (EvalOp, "v perturbed by 1e-6", lambda res: _edit_csv(res, _shift_column(2, 1e-6))),
    (EvalOp, "w_im perturbed by 1e-6", lambda res: _edit_csv(res, _shift_column(4, 1e-6))),
    (EvalOp, "|det A| scaled by 1 + 1e-6", lambda res: _edit_csv(res, _scale_column(5, 1.0 + 1e-6))),
    (EvalOp, "last row dropped", lambda res: _edit_csv(res, lambda rows: rows[:-1])),
    (EvalOp, "x2 coordinate shifted by 1e-12", lambda res: _edit_csv(res, _shift_column(1, 1e-12))),
    (ResidualOp, "report over 0 points", lambda res: _edit_json(res, _set("points", 0))),
    (ResidualOp, "evolution residual 2e-8", lambda res: _edit_json(res, _set("evolution_residual", 2e-8))),
    (ResidualOp, "constraint residual 1e-9", lambda res: _edit_json(res, _set("constraint_residual", 1e-9))),
    (ResidualOp, "exit code 4", lambda res: setattr(res, "code", 4)),
    (SweepOp, "forward errors_v made non-decreasing",
     lambda res: _edit_json(res, _table("forward", "errors_v", lambda xs: [xs[0]] * 2 + xs[2:]))),
    (SweepOp, "backward probe_decay rising at the end",
     lambda res: _edit_json(res, _table("backward", "probe_decay", lambda xs: xs[:-1] + [xs[-2] * 1.01]))),
    (SweepOp, "errors_w falling like t^-1/2",
     lambda res: _edit_json(res, _table("forward", "errors_w", lambda xs: [xs[0] * 10 ** (-i / 2) for i in range(len(xs))]))),
    (SweepOp, "velocity perturbed by 1e-9",
     lambda res: _edit_json(res, lambda rep: rep["velocity"].__setitem__(0, rep["velocity"][0] * (1 + 1e-9)))),
    (FarTimeOp, "far time succeeds with errors 2x those at 1e6", _far_success(2.0)),
    (FarTimeOp, "far time fails with exit code 1", lambda res: setattr(res, "code", 1)),
    (ScanOp, "solved lambda perturbed by 1e-6", _scan_edit(_lambda_nudge)),
    (ScanOp, "one-block profile moved by 1e-6", _scan_edit(_profile_nudge)),
    (ScanOp, "attainable velocity reported forbidden",
     _scan_edit(lambda p, d: p.update(status="forbidden", bound=18.0, abs_c=1.0))),
    ("forbidden", "bound below |c|", _scan_edit(lambda p, d: p.__setitem__("bound", p["abs_c"] * 0.99))),
    ("forbidden", "bound 1% past the boundary", _scan_edit(lambda p, d: p.__setitem__("bound", p["bound"] * 1.01))),
    ("forbidden", "forbidden velocity reported solved",
     _scan_edit(lambda p, d: p.update(status="ok", lambdas=[[2.0, 0.0], [-2.0, 0.0], [0.5, 0.0], [-0.5, 0.0]]))),
]

# Corruptions whose real counterpart must be accepted as a success.
ACCEPTED = [(FarTimeOp, "far time succeeds with errors 0.5x those at 1e6", _far_success(0.5))]


def _matches(op, kind) -> bool:
    if kind == "forbidden":
        return isinstance(op, ScanOp) and not op.target.attainable
    if kind is ScanOp:
        return isinstance(op, ScanOp) and op.target.attainable
    if kind is SweepOp:
        return type(op) is SweepOp
    return isinstance(op, kind)


def _apply(fn, res, state, op):
    if fn.__code__.co_argcount == 3:
        fn(res, state, op)
    else:
        fn(res)


def main() -> int:
    gz = run.load_gzpot()
    runner = workloads.Runner(gz)
    workdir = run.HERE / "work" / f"selftest-{os.getpid()}"
    bad = 0
    try:
        for name in workloads.WORKLOADS:
            wd = workdir / name
            wd.mkdir(parents=True)
            wl = workloads.build(name, 0, wd, workloads.TINY)
            state: dict = {}
            results = []
            for op in wl.ops:
                res = op.run(runner)
                try:
                    op.check(res, state)
                except CheckError as exc:
                    print(f"FAIL {name}: real output rejected: {op.label}: {exc}")
                    bad += 1
                results.append((op, res))
            print(f"ok   {name}: {len(wl.ops)} real outputs accepted")
            for cases, expect_reject in ((CORRUPTIONS, True), (ACCEPTED, False)):
                for kind, case, fn in cases:
                    op, res = next(((o, r) for o, r in results if _matches(o, kind)), (None, None))
                    if op is None:
                        continue
                    fake = copy.deepcopy(res)
                    _apply(fn, fake, state, op)
                    try:
                        op.check(fake, dict(state))
                        rejected = False
                    except CheckError:
                        rejected = True
                    good = rejected == expect_reject
                    bad += not good
                    verdict = "rejected" if rejected else "accepted"
                    print(f"{'ok  ' if good else 'FAIL'} {name}: {case}: {verdict}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test", "passed" if not bad else f"FAILED ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
