"""Net cost of one loop line, over host proxies and over script tables.

    python tools/op_costs.py [--iterations 200000] [--best 7]

Two worlds are built with the package under src/ of this checkout: in
the bridge world counter, point, mathutil and arr are a bench.Counter,
a demo.Point, the class proxy of demo.MathUtil and an integer array of
it; in the native world they are script tables with the same members,
as in perfbench's bridge_calls and native_script.  Both have a script
function f and a script table t with a method hello.  Each line of
LINES runs as the body of a `while` loop of --iterations iterations
inside a script function, in a fresh interpreter per line and world,
so it runs as generated source and sees no other line's effects.  Each
line is timed in both worlds in turn, the worlds alternating which goes
first, --best times, and its best time, less the best time of the empty
loop, is divided by the iterations.  Prints one row per line: the net
cost in microseconds in each world and their ratio.  Every run of a
line also returns its locals and its world's state; a line whose bridge
results differ from its native results is marked FAIL, and the exit
status is 1 if any is.
"""

import argparse
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the lines of ROADMAP's per-op table, and the element read and write
LINES = ("", "c:empty()", "c:inc()", "f()", "t:hello()", "x = c.count",
         "y = p.x", "c.count = 1", "m.twice(2)", "m.describe(2)",
         "p:move(1, 2)", "x = a[1]", "a[1] = 1")

# one loop; {line} is its body, N its iterations
LOOP = """return function(N)
  local c = counter
  local p = point
  local m = mathutil
  local a = arr
  local x = 0
  local y = 0
  local i = 1
  while i <= N do
    {line}
    i = i + 1
  end
  return x, y, c.count, p.x, p.y, a[1], a.length
end"""

COMMON = """
function f() end
t = {}
function t:hello() end
"""

BRIDGE = COMMON + """
counter = hostNewInstance("bench.Counter")
point = hostNewInstance("demo.Point", 0, 0)
mathutil = hostBindClass("demo.MathUtil")
arr = mathutil.intArray(16)
"""

NATIVE = COMMON + """
counter = {count = 0}
function counter:inc() self.count = self.count + 1 end
function counter:empty() end
point = {x = 0, y = 0}
function point:move(dx, dy)
  self.x = self.x + dx
  self.y = self.y + dy
end
mathutil = {}
function mathutil.twice(x) return x * 2 end
function mathutil.describe(v)
  if type(v) == "number" then return "number " .. tostring(v) end
  return "text " .. v
end
arr = {length = 16}
local i = 1
while i <= 16 do arr[i] = 0 i = i + 1 end
"""


def world(prelude: str) -> dict:
    """line -> its loop function, each in a fresh interpreter over the
    demo registry after prelude, so that a line's results show only its
    own effects."""
    from bridgescript.demo import build_demo_registry
    from bridgescript.interp import Interpreter

    loops = {}
    for line in LINES:
        it = Interpreter(build_demo_registry(), out=io.StringIO())
        it.run(prelude)
        loops[line] = it.run(LOOP.format(line=line))[0]
    return loops


def timed(loop, n: float):
    """(seconds, results) of one call of loop."""
    clock = time.perf_counter
    t0 = clock()
    results = loop.invoke([n])
    return clock() - t0, results


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--iterations", type=int, default=200_000)
    ap.add_argument("--best", type=int, default=7)
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    worlds = {"bridge": world(BRIDGE), "native": world(NATIVE)}
    n = float(args.iterations)
    best = {w: dict.fromkeys(LINES, float("inf")) for w in worlds}
    results = {w: {} for w in worlds}
    for loops in worlds.values():  # to the second tier, untimed
        for loop in loops.values():
            loop.invoke([n])
    for r in range(args.best):
        order = list(worlds) if r % 2 == 0 else list(reversed(worlds))
        for line in LINES:
            for w in order:
                seconds, results[w][line] = timed(worlds[w][line], n)
                best[w][line] = min(best[w][line], seconds)
    empty = {w: best[w][""] / n * 1e6 for w in worlds}
    print(f"{args.iterations} iterations, best of {args.best}; empty loop "
          f"{empty['bridge']:.3f} us (bridge), {empty['native']:.3f} us "
          f"(native) per iteration, subtracted")
    print("| operation | bridge | native | bridge / native |")
    print("| --- | --- | --- | --- |")
    failed = False
    for line in LINES[1:]:
        bridge, native = ((best[w][line] - best[w][""]) / n * 1e6
                          for w in ("bridge", "native"))
        ratio = bridge / native if native > 0 else float("nan")
        same = results["bridge"][line] == results["native"][line]
        failed = failed or not same
        mark = "" if same else " FAIL: results differ"
        print(f"| `{line}` | {bridge:.2f} us | {native:.2f} us | "
              f"{ratio:.2f}{mark} |")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
