"""The four seeded workloads and their input generators.

Each workload drives bridgescript only through its public functions.
The generator takes the seed; the program sees only the generated
source text and values.  The harness in run.py calls these parts of a
workload:

  setup()          build the registry from the manifest, freeze it,
                   construct the Interpreter and prepare the workload;
                   this is what setup_s times
  prepare(n)       the inputs of the next n ops (not timed)
  op(item)         one op: one call from the host into the system
  check(item, r)   compare an op's result with reference.py
  final_check()    compare the end state with reference.py

Mixes (number vs string describe() arguments, speaker methods, fragment
shapes) are balanced and only their order is seeded, so every seed costs
the same and run-to-run spread measures the machine, not the inputs.
"""

import io
import random
from dataclasses import dataclass

import reference as ref
from bridgescript import demo, interp, manifest, objects, parser, registry

# Loop iterations per bridge_calls / native_script op.
K = 16
# Loop chunk runs per world in the interchangeability check.
SAME_RUNS = 3


def build_world():
    reg = registry.HostRegistry()
    manifest.register_from_manifest(
        reg, demo.load_demo_manifest(), demo.demo_bodies(reg))
    reg.freeze()
    return reg, interp.Interpreter(reg, out=io.StringIO())


def script_table(pairs) -> objects.Table:
    t = objects.Table()
    for k, v in pairs:
        objects.raw_set(t, k, v)
    return t


def quarters(rng, lo: int, hi: int) -> float:
    """A multiple of 0.25 in [lo, hi], never 0."""
    while True:
        v = rng.randint(lo * 4, hi * 4) / 4.0
        if v:
            return v


def hostref(proxy: objects.Table):
    """The host reference a proxy table stands for."""
    return proxy.entries["__hostref"]


# ------------------------------------------------ bridge_calls / native_script

# One script text for both workloads: over host proxies in bridge_calls,
# over plain tables with the same members in native_script.
LOOP_SOURCE = f"""
local c = counter
local p = point
local m = mathutil
local a = arr
local dx = in_dx
local dy = in_dy
local v = in_v
local w = in_w
local log = out_log
local acc = 0
local i = 1
while i <= {K} do
  c:inc()
  p:move(dx[i], dy[i])
  c.count = c.count + 1
  acc = acc + m.twice(dx[i])
  log[i] = m.describe(v[i])
  a[i] = a[i] + w[i]
  i = i + 1
end
return c.count, p.x, p.y, acc, a[1]
"""

READER_SOURCE = "return counter.count, point.x, point.y, " + ", ".join(
    [f"arr[{i}]" for i in range(1, K + 1)]
    + [f"out_log[{i}]" for i in range(1, K + 1)])

BRIDGE_PRELUDE = """
counter = hostNewInstance("bench.Counter")
point = hostNewInstance("demo.Point", {x0}, {y0})
mathutil = hostBindClass("demo.MathUtil")
arr = mathutil.intArray({K})
"""

NATIVE_PRELUDE = """
counter = {{count = 0}}
function counter:inc() self.count = self.count + 1 end
point = {{x = {x0}, y = {y0}}}
function point:move(dx, dy)
  self.x = self.x + dx
  self.y = self.y + dy
end
mathutil = {{}}
function mathutil.twice(x) return x * 2 end
function mathutil.describe(v)
  if type(v) == "number" then return "number " .. tostring(v) end
  return "text " .. v
end
arr = {{length = {K}}}
local i = 1
while i <= {K} do arr[i] = 0 i = i + 1 end
"""


@dataclass
class LoopInputs:
    x0: float
    y0: float
    dx: list
    dy: list
    v: list   # describe() arguments: half numbers, half strings
    w: list   # integer increments for the host array


def gen_loop_inputs(seed: int) -> LoopInputs:
    rng = random.Random(seed)
    kinds = [True] * (K // 2) + [False] * (K - K // 2)
    rng.shuffle(kinds)
    return LoopInputs(
        x0=quarters(rng, -100, 100),
        y0=quarters(rng, -100, 100),
        dx=[quarters(rng, -4, 4) for _ in range(K)],
        dy=[quarters(rng, -4, 4) for _ in range(K)],
        v=[quarters(rng, -50, 50) if num else f"w{rng.randrange(1000)}"
           for num in kinds],
        w=[rng.randint(1, 9) for _ in range(K)],
    )


class LoopWorkload:
    """One op is one eval_chunk of the K-iteration loop chunk."""

    native = False
    batch_ops = 1000
    sub_ops = 10
    warm_ops = 300

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = gen_loop_inputs(seed)

    def setup(self) -> None:
        inp = self.inputs
        reg, it = build_world()
        prelude = NATIVE_PRELUDE if self.native else BRIDGE_PRELUDE
        it.run(prelude.format(K=K, x0=inp.x0, y0=inp.y0))
        for name, values in (("in_dx", inp.dx), ("in_dy", inp.dy),
                             ("in_v", inp.v), ("in_w", inp.w)):
            it.define_global(name, script_table(
                (float(i + 1), float(x) if isinstance(x, int) else x)
                for i, x in enumerate(values)))
        self.log = objects.Table()
        it.define_global("out_log", self.log)
        chunk = parser.parse_source(LOOP_SOURCE)
        chunk.code()
        self.interp = it
        self.chunk = chunk
        self.runs = 0
        self.expected_log = ref.loop_log(inp)

    def prepare(self, n: int) -> range:
        start = self.runs + 1
        self.runs += n
        return range(start, start + n)

    def op(self, j: int):
        return interp.eval_chunk(self.chunk, self.interp.globals)

    def check(self, j: int, r) -> bool:
        entries = self.log.entries
        ok = r == ref.loop_returns(self.inputs, j) \
            and entries == self.expected_log
        entries.clear()
        return ok

    def state(self) -> list:
        return self.interp.run(READER_SOURCE)

    def final_check(self) -> list:
        """Problems found in the end state; empty when all is well."""
        problems = []
        j = self.prepare(1)[0]
        if self.op(j) != ref.loop_returns(self.inputs, j) \
                or self.state() != ref.loop_state(self.inputs, j):
            problems.append(f"end state after {j} runs differs from the "
                            f"reference")
        problems.extend(interchangeability(self.seed))
        return problems


class NativeLoopWorkload(LoopWorkload):
    native = True
    sub_ops = 16
    warm_ops = 600


def interchangeability(seed: int) -> list:
    """Run the loop chunk over proxies and over plain tables from the same
    inputs; the script must not be able to tell them apart."""
    inputs = gen_loop_inputs(seed)
    states = []
    for cls in (LoopWorkload, NativeLoopWorkload):
        w = cls(seed)
        w.setup()
        for j in w.prepare(SAME_RUNS):
            w.op(j)
        states.append(w.state())
    if states[0] != states[1]:
        return ["bridge and native loop states differ: "
                f"{states[0]!r} != {states[1]!r}"]
    if states[0] != ref.loop_state(inputs, SAME_RUNS):
        return ["bridge and native loop states agree but differ from the "
                "reference"]
    return []


# ------------------------------------------------------------ host_callbacks

CALLBACK_PRELUDE = """
hits = 0
source = hostNewInstance("demo.EventSource")
listener = {{}}
function listener:actionPerformed(ev) hits = hits + 1 end
source:addActionListener(listener)
handlers = {{a = listener.actionPerformed}}
function handlers.b(self, ev) hits = hits + 10 end
speaker = {{tag = "{tag}"}}
function speaker:hello() return "script:hello" end
function speaker:wave() return "script:wave:" .. self.tag end
hostExport(speaker, "demo.Speaker")
"""

SPEAKER_METHODS = ("hello", "wave", "bye")


class HostCallbacks:
    """One op is one host event: fireAction into the auto-wrapped
    listener, then one call on the class-backed demo.Speaker wrapper.
    Every `period` events the host swaps the listener's method."""

    batch_ops = 20000
    sub_ops = 200
    warm_ops = 20000

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.period = rng.randrange(64, 257)
        self.tag = f"s{rng.randrange(1000)}"
        names = list(SPEAKER_METHODS) * 342
        rng.shuffle(names)
        self.names = names

    def setup(self) -> None:
        reg, it = build_world()
        it.run(CALLBACK_PRELUDE.format(tag=self.tag))
        handlers = it.global_value("handlers")
        self.handler = [objects.table_get(handlers, "a"),
                        objects.table_get(handlers, "b")]
        self.listener = it.global_value("listener")
        self.source = hostref(it.global_value("source"))
        self.speaker = it.inbound.host_export(
            it.global_value("speaker"), "demo.Speaker")
        self.reg = reg
        self.interp = it
        self.events = 0
        self.hits = 0
        self.expected = ref.speaker_returns(self.tag)

    def prepare(self, n: int) -> range:
        start = self.events
        self.events += n
        return range(start, start + n)

    def op(self, e: int):
        if e and e % self.period == 0:
            objects.table_set(self.listener, "actionPerformed",
                              self.handler[(e // self.period) % 2])
        call = self.reg.call_method
        call(self.source, "fireAction", [])
        return call(self.speaker, self.names[e % len(self.names)], [])

    def check(self, e: int, r) -> bool:
        self.hits += ref.hits_increment(e, self.period)
        return (r == self.expected[self.names[e % len(self.names)]]
                and self.interp.global_value("hits") == self.hits)

    def final_check(self) -> list:
        hits = self.interp.global_value("hits")
        expected = ref.hits_total(self.events, self.period)
        if hits != expected:
            return [f"hits is {hits!r} after {self.events} events, "
                    f"expected {expected}"]
        return []


# ------------------------------------------------------------- console_churn

CONSOLE_PRELUDE = """
frame = hostNewInstance("demo.Frame", "Console")
ta = hostNewInstance("demo.TextArea")
execute = hostNewInstance("demo.Button", "Execute")
local listener = {}
function listener:actionPerformed(ev)
  dostring(ta:getText())
end
execute:addActionListener(listener)
local layout = hostBindClass("demo.BorderLayout")
frame:add(layout.CENTER, ta)
frame:add(layout.SOUTH, execute)
frame:pack()
frame:show()
"""

# Result globals cycle over this many names so the globals stay bounded.
RESULT_NAMES = 8


@dataclass
class Fragment:
    q: int          # op number: makes every fragment's text distinct
    titled: bool    # demo.Frame(title) or demo.Frame()
    placed: bool    # demo.Point(x, y) or demo.Point()
    numeric: bool   # the result is a number, or a string
    title: str
    x: float
    y: float
    dx: float
    dy: float
    k: float
    side: str       # a static field of demo.BorderLayout
    text: str = ""
    name: str = ""


def gen_fragment(rng, q: int) -> Fragment:
    """Fragment grammar: a frame (titled or not), a point (placed or
    not), p:move, f:pack, f:show on half of them, then a fresh button
    whose script listener, auto-wrapped as a demo.ActionListener, stores
    one result global when the fragment presses the button.  The result
    is either p.x * k + p.y + q or f.title .. ":q:" .. tostring(p.x - p.y)
    .. ":" .. hostBindClass("demo.BorderLayout").<side>.  The shapes
    cycle with q; the numbers and the side are seeded."""
    titled, placed, numeric = bool(q & 1), bool(q & 2), bool(q & 4)
    f = Fragment(
        q=q, titled=titled, placed=placed, numeric=numeric,
        title=f"T{rng.randrange(100000)}" if titled else "",
        x=quarters(rng, -100, 100) if placed else 0.0,
        y=quarters(rng, -100, 100) if placed else 0.0,
        dx=quarters(rng, -8, 8), dy=quarters(rng, -8, 8),
        k=float(rng.randint(1, 9)),
        side=rng.choice(sorted(ref.BORDER_SIDES)))
    f.name = f"r{q % RESULT_NAMES}"
    frame = (f'hostNewInstance("demo.Frame", "{f.title}")' if titled
             else 'hostNewInstance("demo.Frame")')
    point = (f'hostNewInstance("demo.Point", {f.x!r}, {f.y!r})' if placed
             else 'hostNewInstance("demo.Point")')
    if numeric:
        result = f"p.x * {f.k!r} + p.y + {q}"
    else:
        result = (f'f.title .. ":{q}:" .. tostring(p.x - p.y) .. ":" .. '
                  f'hostBindClass("demo.BorderLayout").{f.side}')
    lines = [f"local f = {frame}",
             f"local p = {point}",
             f"p:move({f.dx!r}, {f.dy!r})",
             "f:pack()"]
    if q & 8:
        lines.append("f:show()")
    lines += [f'local b = hostNewInstance("demo.Button", "B{q}")',
              "b:addActionListener({actionPerformed = function(self, ev) "
              f"{f.name} = {result} end}})",
              "b:press()"]
    f.text = "\n".join(lines)
    return f


class ConsoleChurn:
    """One op is one console press: ta:setText(fragment) and then
    button:press(), whose listener runs dostring on the fragment."""

    batch_ops = 1000
    sub_ops = 12
    warm_ops = 8000

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self) -> None:
        reg, it = build_world()
        it.run(CONSOLE_PRELUDE)
        self.ta = hostref(it.global_value("ta"))
        self.button = hostref(it.global_value("execute"))
        self.reg = reg
        self.interp = it
        self.presses = 0

    def prepare(self, n: int) -> list:
        start = self.presses
        self.presses += n
        return [gen_fragment(self.rng, q) for q in range(start, start + n)]

    def op(self, f: Fragment):
        call = self.reg.call_method
        call(self.ta, "setText", [f.text])
        call(self.button, "press", [])

    def check(self, f: Fragment, r) -> bool:
        return self.interp.global_value(f.name) == ref.fragment_result(f)

    def final_check(self) -> list:
        f = self.prepare(1)[0]
        self.op(f)
        if not self.check(f, None):
            return [f"fragment {f.q} stored a wrong result"]
        return []


WORKLOADS = {
    "bridge_calls": LoopWorkload,
    "native_script": NativeLoopWorkload,
    "host_callbacks": HostCallbacks,
    "console_churn": ConsoleChurn,
}
