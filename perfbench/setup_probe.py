"""Fresh-interpreter set-up, timed by run.py from outside.

    python3 setup_probe.py import SRC
        imports gzpot from SRC and prints the seconds the import took.
    python3 setup_probe.py setup SRC PLAN_JSON
        imports gzpot, loads and validates every config of the plan,
        constructs their evaluators, evaluates the first point (after solving
        the first scan target, when the plan has one) and prints "ready".
"""

import json
import sys
import time


def main(argv):
    mode, src = argv[1], argv[2]
    sys.path.insert(0, src)
    if mode == "import":
        start = time.perf_counter()
        import gzpot  # noqa: F401

        print(repr(time.perf_counter() - start), flush=True)
        return 0

    plan = json.loads(argv[3])
    import gzpot.cli  # noqa: F401  (the whole package, as the command line loads it)
    from gzpot import params as par
    from gzpot import potential as pot

    evaluators = []
    for path in plan["configs"]:
        ps = par.load_parameter_set(path)
        if not par.validate(ps).ok:
            print(f"invalid config {path}", file=sys.stderr)
            return 1
        evaluators.append(pot.PotentialEvaluator(ps))
    ev = evaluators[0]
    target = plan.get("target")
    if target is not None:
        c = complex(target["c"][0], target["c"][1])
        gamma = complex(target["gamma"][0], target["gamma"][1])
        lams = par.solve_velocity_inverse(c, target["E"])
        if lams is not None:
            ps = par.expand_blocks(target["E"], [par.BlockSeed(lams[0], gamma)], check=False)
            par.validate(ps)
            ev = pot.PotentialEvaluator(ps)
    pot.eval_fields(ev, pot.SpacetimePoint(*plan["point"]))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
