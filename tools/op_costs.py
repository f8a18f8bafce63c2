"""Net cost of one loop line, over host proxies and over script tables,
and of one host-side call.

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
results differ from its native results is marked FAIL.

The host calls of HOST_CALLS, as in perfbench's host_callbacks and
console_churn, are timed the same way in a Python loop of a tenth of the
iterations, less the loop's cost with an empty call, in an interpreter
after HOST_PRELUDE.  A call whose last result differs from the one
HOST_CALLS gives it is marked FAIL, and so is the listener if it did not
run once per fireAction.

The crossings of LONE_LINES and LONE_HOST must run the registry's lone
form, the one generated chain of crossings that runs a lone overload's
body itself: the dispatcher a bridge line leaves in its proxy, or the
entry a host call leaves in the registry or the outbound bridge's
constructors, must be compiled from it (file name "<lone>").  One that
is not is marked FAIL.  The crossings of LONE_LINES and FIELD_LINES must
also run in place in their loop's generated unit: the unit must guard on
the line's dispatcher, or on its proxy's index or newindex fallback,
which it holds weakly.  One that does not is marked FAIL.  The exit
status is 1 if anything is marked FAIL.
"""

import argparse
import io
import sys
import time
import weakref
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the lines of ROADMAP's per-op table, a float field's write, and the
# element read and write
LINES = ("", "c:empty()", "c:inc()", "f()", "t:hello()", "x = c.count",
         "y = p.x", "c.count = 1", "p.x = 1.5", "m.twice(2)",
         "m.describe(2)", 'm.describe("s")', "p:move(1, 2)", "x = a[1]",
         "a[1] = 1")

# the bridge lines that must run the registry's lone form -> the global
# and member whose dispatcher the line leaves behind, and the host calls
# that must -> the registry entry they leave behind
LONE_LINES = {"c:empty()": ("counter", "empty"), "c:inc()": ("counter", "inc"),
              "m.twice(2)": ("mathutil", "twice"),
              "m.describe(2)": ("mathutil", "describe"),
              'm.describe("s")': ("mathutil", "describe"),
              "p:move(1, 2)": ("point", "move")}
# the field and element lines that must run in place -> the global and
# the fallback of its proxy that the line's unit guards on
FIELD_LINES = {"x = c.count": ("counter", "index_handler"),
               "c.count = 1": ("counter", "newindex_handler"),
               "p.x = 1.5": ("point", "newindex_handler"),
               "x = a[1]": ("arr", "index_handler"),
               "a[1] = 1": ("arr", "newindex_handler")}
LONE_HOST = {"src.fireAction() into the script listener":
             ("demo.EventSource", "fireAction"),
             'instantiate("demo.ActionEvent", [src])': "demo.ActionEvent",
             'hostNewInstance("demo.Point", 1, 2)': "demo.Point"}

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


# a script listener on a demo.EventSource and a class-backed speaker
# that defines hello and lets bye fall through to its backing
HOST_PRELUDE = """
hits = 0
src = hostNewInstance("demo.EventSource")
listener = {}
function listener:actionPerformed(ev) hits = hits + 1 end
src:addActionListener(listener)
speaker = {}
function speaker:hello() return "script:hello" end
"""

# each call and its result; an event shows as its class and whether its
# source is src
HOST_CALLS = {"src.fireAction() into the script listener": None,
              "speaker.hello() on the wrapper": "script:hello",
              "speaker.bye() falling through": "base:bye",
              'instantiate("demo.ActionEvent", [src])':
              ("demo.ActionEvent", True),
              'hostNewInstance("demo.Point", 1, 2)': ("demo.Point", 1.0, 2.0)}


def world(prelude: str):
    """(line -> its loop function, line -> its interpreter), each in a
    fresh interpreter over the demo registry after prelude, so that a
    line's results show only its own effects."""
    from bridgescript.demo import build_demo_registry
    from bridgescript.interp import Interpreter

    loops, its = {}, {}
    for line in LINES:
        it = its[line] = Interpreter(build_demo_registry(),
                                     out=io.StringIO())
        it.run(prelude)
        loops[line] = it.run(LOOP.format(line=line))[0]
    return loops, its


def lone(f) -> bool:
    """Is f compiled from the registry's lone form?"""
    return f.__code__.co_filename == "<lone>"


def guarded(units: list, obj) -> bool:
    """Does one of the generated units, given by their globals, hold obj
    weakly, as a unit does the bridge objects it guards on?"""
    return any(v.__class__ is weakref.ref and v() is obj
               for env in units for v in env.values())


def warm(loops, n: float) -> dict:
    """Run each loop once, untimed, so it moves to the second tier;
    line -> the globals of the units generated on the way."""
    from bridgescript import nodes

    made = []
    generate = nodes._generate

    def watch(gen_unit, line):
        made.append(generate(gen_unit, line))
        return made[-1]
    nodes._generate = watch
    try:
        units = {}
        for line, loop in loops.items():
            del made[:]
            loop.invoke([n])
            units[line] = [u.__globals__ for u in made if u is not None]
        return units
    finally:
        nodes._generate = generate


def host_world():
    """(call -> a function making it once, a function reading its
    result as HOST_CALLS gives it, a function reading the listener's
    hits, key -> the crossing a call left under it: a registry entry,
    or the constructors of the class key that hostNewInstance calls)
    over the demo registry."""
    from bridgescript.demo import build_demo_registry
    from bridgescript.interp import Interpreter
    from bridgescript.registry import HostObject

    reg = build_demo_registry()
    it = Interpreter(reg, out=io.StringIO())
    it.run(HOST_PRELUDE)
    src = it.global_value("src").entries["__hostref"]
    speaker = it.inbound.host_export(it.global_value("speaker"),
                                     "demo.Speaker")
    call = reg.call_method
    calls = dict(zip(HOST_CALLS, (
        lambda: call(src, "fireAction", []),
        lambda: call(speaker, "hello", []),
        lambda: call(speaker, "bye", []),
        lambda: reg.instantiate("demo.ActionEvent", [src]),
        lambda: it.outbound.host_new_instance("demo.Point", [1.0, 2.0]))))

    def result(r):
        if r is None or r.__class__ is str:
            return r
        if r.__class__ is HostObject:  # the event
            return r.class_name, r.fields["source"] is src
        r = r.entries["__hostref"]  # a point's proxy
        return r.class_name, r.fields["x"], r.fields["y"]

    def crossing(key):
        return (reg.entries.get(key)
                or it.outbound._constructors.get(key))
    return calls, result, lambda: it.global_value("hits"), crossing


def timed_calls(call, n: int):
    """(seconds, last result) of n calls of call."""
    clock = time.perf_counter
    r = None
    t0 = clock()
    for _ in range(n):
        r = call()
    return clock() - t0, r


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
    (bridge, its), (native, _) = world(BRIDGE), world(NATIVE)
    worlds = {"bridge": bridge, "native": native}
    n = float(args.iterations)
    best = {w: dict.fromkeys(LINES, float("inf")) for w in worlds}
    results = {w: {} for w in worlds}
    units = warm(bridge, n)
    warm(native, n)
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
    for line, (name, member) in LONE_LINES.items():
        f = its[line].global_value(name).entries[member]
        if not lone(f.fn):
            print(f"FAIL: `{line}` did not run the registry's lone form")
            failed = True
        if not guarded(units[line], f):
            print(f"FAIL: `{line}` did not run in place in its unit")
            failed = True
    for line, (name, fallback) in FIELD_LINES.items():
        if not guarded(units[line],
                       getattr(its[line].global_value(name), fallback)):
            print(f"FAIL: `{line}` did not run in place in its unit")
            failed = True
    failed = host_rows(args.iterations // 10, args.best) or failed
    sys.exit(1 if failed else 0)


def host_rows(n: int, best_of: int) -> bool:
    """Prints the host calls' table; True if anything is marked FAIL."""
    calls, result, hits, crossing = host_world()
    calls[""] = lambda: None
    rows = ("", *HOST_CALLS)
    best = dict.fromkeys(rows, float("inf"))
    results = {row: result(calls[row]()) for row in rows}  # warm, untimed
    for _ in range(best_of):
        for row in rows:
            seconds, last = timed_calls(calls[row], n)
            best[row] = min(best[row], seconds)
            results[row] = result(last)
    print(f"{n} calls, best of {best_of}; an empty call's loop subtracted")
    print("| host call | net cost |")
    print("| --- | --- |")
    failed = False
    for row, want in HOST_CALLS.items():
        same = results[row] == want
        failed = failed or not same
        mark = "" if same else f" FAIL: returned {results[row]!r}"
        print(f"| `{row}` | {(best[row] - best['']) / n * 1e6:.2f} us{mark} |")
    fired = 1 + n * best_of  # fireAction calls, the untimed one included
    if hits() != fired:
        print(f"FAIL: the listener ran {hits()} times for {fired} "
              f"fireAction calls")
        failed = True
    for row, key in LONE_HOST.items():
        if not lone(crossing(key)):
            print(f"FAIL: `{row}` did not run the registry's lone form")
            failed = True
    return failed


if __name__ == "__main__":
    main()
