"""Front-end cost per console press, layer by layer, of two checkouts.

    python tools/frontend_layers.py --parent <checkout> [--rounds 21]

Lexes, parses and compiles the 200 console_churn fragments of seed 1
(perfbench's gen_fragment, questions 0-199) with the package under src/
of this checkout and of the --parent checkout.  Both packages are
imported into one process under names of their own and timed in
alternating rounds, so a slow spell of the machine hits both.  A round
takes each fragment in turn through tokenize, parse and Chunk.code and
then drops it, as a press does; its sums are divided by 200.  Each
layer's best round is kept.  Prints one JSON object: microseconds per
fragment for each side and each layer, and change / parent ratios.
"""

import argparse
import gc
import importlib
import json
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("lex", "parse", "compile")


def load(checkout: Path, name: str, into: str):
    """tokenize and parse from checkout's package, imported as name."""
    shutil.copytree(checkout / "src" / "bridgescript", Path(into) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return (importlib.import_module(name + ".lexer").tokenize,
            importlib.import_module(name + ".parser").parse)


def one_round(tokenize, parse, texts) -> list:
    clock = time.perf_counter
    sums = [0.0, 0.0, 0.0]
    gc.collect()
    for text in texts:
        t0 = clock()
        tokens = tokenize(text)
        t1 = clock()
        chunk = parse(tokens)
        t2 = clock()
        chunk.code()
        t3 = clock()
        sums[0] += t1 - t0
        sums[1] += t2 - t1
        sums[2] += t3 - t2
    return [s / len(texts) * 1e6 for s in sums]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--rounds", type=int, default=21)
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import gen_fragment
    rng = random.Random(1)
    texts = [gen_fragment(rng, q).text for q in range(200)]
    into = tempfile.mkdtemp()
    try:
        sys.path.insert(0, into)
        sides = {"parent": load(args.parent.resolve(), "fl_parent", into),
                 "change": load(ROOT, "fl_change", into)}
        best = {side: [float("inf")] * 3 for side in sides}
        for r in range(args.rounds):
            order = list(sides) if r % 2 == 0 else list(reversed(sides))
            for side in order:
                times = one_round(*sides[side], texts)
                best[side] = list(map(min, best[side], times))
    finally:
        shutil.rmtree(into, ignore_errors=True)
    out = {side: dict(zip(LAYERS, map(lambda v: round(v, 2), best[side])),
                      total=round(sum(best[side]), 2)) for side in best}
    out["change_over_parent"] = {
        k: round(out["change"][k] / out["parent"][k], 3)
        for k in (*LAYERS, "total")}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
