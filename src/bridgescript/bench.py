"""Call-overhead benchmark: three loops, empty-loop subtraction.

The measurement is three loops of N iterations: one empty, one making a
single call per iteration, one making the same call twice.  The per-call
figure averages the two available loop differences:

    perCall = ((twoCalls - oneCall) + (oneCall - emptyLoop)) / (2 * N)

so loop bookkeeping cancels out.  The same structure runs three ways:

  outbound  script loop calling an empty method on a host proxy
  native    script loop calling an empty script closure (baseline)
  inbound   host loop invoking a wrapped script method

Absolute numbers are hardware-bound and not comparable across decades;
the only asserted property is perCallOutbound > perCallNative > 0.  Each
loop is warmed up 3 times at a reduced iteration count.  Then 5 rounds
each time every loop once with a monotonic clock, so that a burst of
machine load spreads over all flavours, and each loop's median is
reported.  Inbound runs at a tenth of the iterations by default: it is
a supplementary figure and per-call cost, not total, is what the report
carries.
"""

import time
from dataclasses import dataclass, fields
from functools import partial
from statistics import median

from .demo import build_demo_interpreter
from .errors import BenchmarkError, IterationsTooSmall
from .interp import eval_chunk
from .parser import parse_source

_SETUP = """
__bench_counter = hostNewInstance("bench.Counter")
__bench_fn = function() end
__bench_t = {}
function __bench_t:hello() return "x" end
"""

# Each flavour times an empty loop and loops making one and two calls per
# iteration: (name, report heading, BenchReport field prefix, field with
# its iteration count).  The three times are <prefix>empty_loop_s,
# <prefix>one_call_s and <prefix>two_calls_s; the result per_call_<name>_s.
_FLAVOURS = (
    ("outbound", "script -> host proxy", "", "iterations"),
    ("native", "script closure", "native_", "iterations"),
    ("inbound", "host -> script wrapper", "inbound_", "inbound_iterations"),
)
_LOOPS = ("empty loop", "one call", "two calls")


@dataclass
class BenchReport:
    iterations: int
    empty_loop_s: float
    one_call_s: float
    two_calls_s: float
    per_call_outbound_s: float
    native_empty_loop_s: float
    native_one_call_s: float
    native_two_calls_s: float
    per_call_native_s: float
    ratio: float
    inbound_iterations: int
    inbound_empty_loop_s: float
    inbound_one_call_s: float
    inbound_two_calls_s: float
    per_call_inbound_s: float


def per_call_seconds(empty_loop: float, one_call: float, two_calls: float,
                     iterations: int) -> float:
    """Average of the two loop differences, per call."""
    return ((two_calls - one_call) + (one_call - empty_loop)) \
        / (2.0 * iterations)


def _reduced(n: int) -> int:
    return min(n, max(1000, n // 100))


def _field(prefix: str, label: str) -> str:
    return prefix + label.replace(" ", "_") + "_s"


def _loop(recv: str, body: str, n: int) -> str:
    """A script loop of n iterations running body on the local c.
    Receivers are hoisted into that local so the loops time the call
    itself, not repeated global lookup."""
    return (f"local c = {recv} local i = 0 "
            f"while i < {n} do {body}i = i + 1 end")


def _time(loops, warmups: int, repeats: int) -> list:
    """Median time of prepare(n)() for each (prepare, n) of loops, timed
    round-robin; prepare(k) does its setup (parsing, for a script loop)
    outside the timed region."""
    runs = []
    for prepare, n in loops:
        warm = prepare(_reduced(n))
        for _ in range(warmups):
            warm()
        runs.append(prepare(n))
    samples = [[] for _ in runs]
    for _ in range(repeats):
        for run, times in zip(runs, samples):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
    return [median(times) for times in samples]


def run_bench(iterations: int = 1_000_000, interp=None,
              warmups: int = 3, repeats: int = 5,
              inbound_iterations: int | None = None) -> BenchReport:
    if iterations < 1000:
        raise IterationsTooSmall(
            f"{iterations} iterations is below the timing noise floor")
    if interp is None:
        interp = build_demo_interpreter()
    if inbound_iterations is None:
        inbound_iterations = max(1000, iterations // 10)
    interp.run(_SETUP)
    w = interp.inbound.host_export(
        interp.global_value("__bench_t"), "demo.Greeter")

    def script(recv: str, body: str):
        return lambda k: partial(
            eval_chunk, parse_source(_loop(recv, body, k)), interp.globals)

    def host(loop):
        return lambda k: partial(loop, k)

    def in_empty(k: int) -> None:
        for _ in range(k):
            pass

    def in_one(k: int) -> None:
        invoke = w.invoke_method
        for _ in range(k):
            invoke("hello", [])

    def in_two(k: int) -> None:
        invoke = w.invoke_method
        for _ in range(k):
            invoke("hello", [])
            invoke("hello", [])

    # Every script flavour's empty loop declares the same local, so the
    # native flavour times the outbound empty loop again.
    empty = script("__bench_counter", "")
    loops = (
        (empty, script("__bench_counter", "c:empty() "),
         script("__bench_counter", "c:empty() c:empty() ")),
        (empty, script("__bench_fn", "c() "),
         script("__bench_fn", "c() c() ")),
        (host(in_empty), host(in_one), host(in_two)),
    )
    values = {"iterations": iterations,
              "inbound_iterations": inbound_iterations}
    sizes = [values[count] for *_, count in _FLAVOURS]
    timed = iter(_time([(p, n) for prepares, n in zip(loops, sizes)
                        for p in prepares], warmups, repeats))
    for (name, _, prefix, _), n in zip(_FLAVOURS, sizes):
        times = [next(timed) for _ in _LOOPS]
        for label, t in zip(_LOOPS, times):
            values[_field(prefix, label)] = t
        values[f"per_call_{name}_s"] = per_call_seconds(*times, n)

    per_out = values["per_call_outbound_s"]
    per_nat = values["per_call_native_s"]
    if not per_out > per_nat > 0:
        raise BenchmarkError(
            f"expected perCallOutbound > perCallNative > 0, got "
            f"{per_out:.3e} vs {per_nat:.3e}")
    return BenchReport(ratio=per_out / per_nat, **values)


def measure_first_vs_rest(interp=None, calls: int = 10_000,
                          runs: int = 5) -> tuple:
    """Median time of the first proxy-method call (cold fallback) versus
    the per-call time of the remaining calls on the same fresh proxy."""
    if interp is None:
        interp = build_demo_interpreter()
    k = calls - 1
    first_chunk = parse_source("__fvr_c:empty()")
    rest_chunk = parse_source(_loop("__fvr_c", "c:empty() ", k))
    empty_chunk = parse_source(_loop("__fvr_c", "", k))
    firsts, rests = [], []
    for run in range(runs + 1):
        interp.run('__fvr_c = hostNewInstance("bench.Counter")')
        t0 = time.perf_counter()
        eval_chunk(first_chunk, interp.globals)
        first = time.perf_counter() - t0
        t0 = time.perf_counter()
        eval_chunk(empty_chunk, interp.globals)
        base = time.perf_counter() - t0
        t0 = time.perf_counter()
        eval_chunk(rest_chunk, interp.globals)
        rest = (time.perf_counter() - t0 - base) / k
        if run == 0:
            continue  # warm-up pass
        firsts.append(first)
        rests.append(rest)
    return median(firsts), median(rests)


def to_record(r: BenchReport) -> dict:
    """Flat key-value form with times in integer nanoseconds."""
    record = {}
    for f in fields(r):
        value = getattr(r, f.name)
        if f.name.endswith("_s"):
            record[f.name[:-2] + "_ns"] = int(round(value * 1e9))
        else:
            record[f.name] = value
    return record


def format_report(r: BenchReport) -> str:
    lines = []
    for name, heading, prefix, count in _FLAVOURS:
        lines.append(f"{name} ({heading}, N={getattr(r, count)})")
        for label in _LOOPS:
            value = getattr(r, _field(prefix, label))
            lines.append(f"  {label:<12}{value:.4f} s")
        per_call = getattr(r, f"per_call_{name}_s")
        lines.append(f"  per call    {per_call * 1e6:.3f} us")
    lines += [
        f"outbound/native ratio: {r.ratio:.1f}x",
        "reference point (1999 hardware): outbound 49 us, native 3 us"
        " (~16x), inbound 64 us",
    ]
    return "\n".join(lines)
