"""The second-tier units one perfbench workload generates.

    python tools/tier_units.py --workload native_script [--seed 1] [--quiet]

Sets up one workload of perfbench/workloads.py with the package under
src/ of this checkout, runs its warm-up ops, each checked against
perfbench/reference.py, and prints the source of every unit the second
tier generated on the way, each under a header naming the line of its
loop or function, the sites it inlined, the loops it peeled, the host
crossings it wrote in place (calls of host methods whose chains have
lone crossings of the call's arity, and reads and stores of instance
fields and array elements) and the calls of native functions it wrote
in place by their one-value form, inside inlined callees too, each site
counted once per copy, so a crossing in a peeled loop counts twice.  A
unit that Python refused rich and was generated plain is marked so.
The last line is one JSON object: the count of units generated and
refused, of units generated plain, of inlined sites, of peeled loops,
of host crossings and of natives in place, and one entry per generated
unit ({"line", "params", "rich", "inlined", "peeled", "hosted",
"natives"}), in the order made.  A chunk's unit is the one with line 1
and params "G, U".
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quiet", action="store_true",
                    help="print only the JSON line")
    args = ap.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from bridgescript import nodes
    import workloads

    made = []  # (_Gen, params) of each source handed to compile
    units = []
    refused = 0
    function = nodes._Gen.function
    generate = nodes._generate

    def record(g, params):
        made.append((g, params))
        return function(g, params)

    def watch(gen_unit, line):
        nonlocal refused
        del made[:]
        hot = generate(gen_unit, line)
        if hot is None:
            refused += 1
        else:
            g, params = made[-1]
            units.append((line, params, g))
        return hot

    nodes._Gen.function = record
    nodes._generate = watch
    w = workloads.WORKLOADS[args.workload](args.seed)
    w.setup()
    for j in w.prepare(w.warm_ops):
        if not w.check(j, w.op(j)):
            sys.exit(f"tier_units.py: op {j} of {args.workload} is wrong")
    entries = []
    for line, params, g in units:
        entries.append({"line": line, "params": params, "rich": g.rich,
                        "inlined": g.inlined, "peeled": g.peeled,
                        "hosted": g.hosted, "natives": g.natives})
        if not args.quiet:
            plain = "" if g.rich else ", generated plain"
            print(f"# line {line}: {g.inlined} inlined, {g.peeled} peeled, "
                  f"{g.hosted} hosted, {g.natives} natives{plain}")
            print(g.function(params))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "generated": len(units), "refused": refused,
        "plain": sum(not e["rich"] for e in entries),
        "inlined": sum(e["inlined"] for e in entries),
        "peeled": sum(e["peeled"] for e in entries),
        "hosted": sum(e["hosted"] for e in entries),
        "natives": sum(e["natives"] for e in entries),
        "units": entries}))


if __name__ == "__main__":
    main()
