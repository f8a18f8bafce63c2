"""End-to-end benchmark for bridgescript.

    python3 perfbench/run.py --workload bridge_calls --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Runs one seeded workload (see workloads.py) in this process, on one
thread, against the package under src/ of the checkout that holds this
file.  An op is one call from the host into the system.  A run is:

  set-up     SETUP_REPS fresh set-ups; setup_s is their median
  warm-up    the workload's fixed warm_ops ops, which fill every cache;
             peak_rss_mb is read right after, so it reflects a fixed
             amount of work whatever the speed
  timed      batches of batch_ops ops until --seconds have passed; each
             op is timed alone and checked against reference.py
  end check  the end state against reference.py (and, for the loop
             workloads, bridge vs native interchangeability)

ops_per_s is the median over batches of ops / the sum of the batch's op
latencies; op_p50_us is the median of all the timed ops' latencies, and
op_p99_us the median over batches of each batch's p99 (a batch has at
least 1000 ops, so at least ten lie beyond its p99).
All times are scaled to a reference machine speed (see speed_factor); the
mean factor and the unscaled ops_per_s and p50 are printed beside them,
and the traced run reports them as per-layer metrics.  Every op that
raises or returns a wrong result counts as failed.

--trace 1 measures the per-layer figures instead: an untraced quarter of
--seconds for the overhead ratio and the speed figures, then the same
workload with span wrappers (spans.py) around every layer.  The spans go to
perfbench/out/spans-<workload>-<seed>.json.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Exit status is 0 only when a result was printed.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The keys of workloads.WORKLOADS, which cannot be imported before
# load_package() has put the package on the path.
NAMES = ("bridge_calls", "native_script", "host_callbacks", "console_churn")
SETUP_REPS = 40
TRACE_SETUP_REPS = 5

E2E_UNITS = {"ops_per_s": "1/s", "op_p50_us": "us", "op_p99_us": "us",
             "setup_s": "s", "peak_rss_mb": "MiB"}


def load_package():
    """Import bridgescript from src/ of this checkout, or exit with an
    error message and no result."""
    if not (SRC / "bridgescript" / "__init__.py").is_file():
        sys.exit(f"run.py: no package source at {SRC}/bridgescript")
    sys.path.insert(0, str(SRC))
    import bridgescript
    if Path(bridgescript.__file__).resolve().parent != SRC / "bridgescript":
        sys.exit(f"run.py: imported bridgescript from "
                 f"{bridgescript.__file__}, not from {SRC}")


class Harness:
    """Runs ops of one workload and keeps what the metrics need."""

    def __init__(self, w):
        self.w = w
        self.ops = 0
        self.failed = 0
        self.first_error = None
        self.batches = []      # (ops, latency sum, at the reference speed)
        self.raw = array("d")  # every timed op's latency as measured
        self.lat = array("d")  # the same at the reference speed

    def run(self, items, lat, op=None) -> None:
        """Run, time and check each item's op, appending its latency to lat."""
        op = op or self.w.op
        check = self.w.check
        clock = time.perf_counter
        failed = 0
        for item in items:
            s = clock()
            try:
                r = op(item)
            except Exception as e:  # noqa: BLE001 - a failed op is counted
                lat.append(clock() - s)
                failed += 1
                if self.first_error is None:
                    self.first_error = f"{type(e).__name__}: {e}"
                continue
            lat.append(clock() - s)
            if not check(item, r):
                failed += 1
                if self.first_error is None:
                    self.first_error = f"wrong result for op {item!r:.200}"
        self.ops += len(items)
        self.failed += failed

    def timed(self, seconds: float, op=None) -> None:
        """Batches until `seconds` have passed.  The speed kernel runs
        between sub-batches of about 5 ms, and each sub-batch's latencies
        are scaled by the kernel runs on either side of it (speed_factor).
        A batch's time is the sum of its ops' latencies, so the harness's
        own work between ops (checks, the kernel) is not in it."""
        w = self.w
        raw, lat = self.raw, self.lat
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            items = w.prepare(w.batch_ops)
            first = len(raw)
            before = kernel_seconds()
            for k in range(0, len(items), w.sub_ops):
                n = len(raw)
                self.run(items[k:k + w.sub_ops], raw, op)
                after = kernel_seconds()
                f = speed_factor((before, after))
                lat.extend([x * f for x in raw[n:]])
                before = after
            self.batches.append(
                (len(items), sum(raw[first:]), sum(lat[first:])))

    def timed_ops(self) -> int:
        return len(self.lat)

    def busy(self) -> float:
        """Seconds spent inside timed ops, as measured."""
        return sum(b[1] for b in self.batches)

    def factor(self) -> float:
        """Mean speed factor over the timed ops."""
        return sum(b[2] for b in self.batches) / self.busy()

    def summary(self) -> dict:
        """Throughput and latency percentiles at the reference speed, and
        the unscaled throughput and p50 beside them.  op_p99_us is the
        median of the batches' own p99s: a burst of machine noise that
        slows a few batches moves a whole-run p99, not this median."""
        b = self.batches
        p99s = []
        i = 0
        for n, _, _ in b:
            p99s.append(statistics.quantiles(self.lat[i:i + n], n=100)[98])
            i += n
        return {
            "ops_per_s": statistics.median(x[0] / x[2] for x in b),
            "op_p50_us": statistics.median(self.lat) * 1e6,
            "op_p99_us": statistics.median(p99s) * 1e6,
            "raw_ops_per_s": statistics.median(x[0] / x[1] for x in b),
            "raw_op_p50_us": statistics.median(self.raw) * 1e6,
            "speed_factor": self.factor(),
        }


# Passes over KERNEL_TREE in one speed_kernel() call.
KERNEL_REPS = 6
# Nominal time of one speed_kernel() call: the reference machine speed
# that every reported time is scaled to.  Fixed for the benchmark's life.
KERNEL_REF_S = 0.0002


def _tree(depth: int, leaves: list):
    if depth == 0:
        leaves[0] += 1
        i = leaves[0]
        return ("var", "abc"[i % 3]) if i % 2 else ("num", 0.25 * (i % 7))
    return (("add", "mul", "sub")[depth % 3],
            _tree(depth - 1, leaves), _tree(depth - 1, leaves))


KERNEL_TREE = _tree(7, [0])


def speed_kernel() -> float:
    """Fixed work shaped like a tree-walking interpreter's (recursive
    calls, tuple and dict reads, float arithmetic), independent of
    bridgescript.  It allocates two containers, so it does not drive the
    garbage collector."""
    env = {"a": 0.5, "b": 1.25, "c": -0.75}

    def ev(node):
        tag = node[0]
        if tag == "num":
            return node[1]
        if tag == "var":
            return env[node[1]]
        left = ev(node[1])
        right = ev(node[2])
        if tag == "add":
            return left + right
        if tag == "mul":
            return left * right * 0.5
        return left - right

    acc = 0.0
    for _ in range(KERNEL_REPS):
        acc += ev(KERNEL_TREE)
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    speed_kernel()
    return time.perf_counter() - t0


def speed_factor(kernel_times) -> float:
    """KERNEL_REF_S over the median of the kernel times around a stretch
    of work: multiplying the stretch's measured times by it gives them at
    the reference speed.  On a shared machine the speed drifts by tens of
    percent over seconds to minutes; the kernel runs right before and after
    the work it scales, so the drift cancels."""
    return KERNEL_REF_S / statistics.median(kernel_times)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(cls, seed: int, reps: int):
    """reps fresh set-ups, the speed kernel between them; returns the last
    workload and the set-up times scaled to the reference speed."""
    times = []
    before = kernel_seconds()
    for _ in range(reps):
        w = cls(seed)
        t0 = time.perf_counter()
        w.setup()
        dt = time.perf_counter() - t0
        after = kernel_seconds()
        times.append(dt * speed_factor((before, after)))
        before = after
    return w, times


def measure(cls, seed: int, seconds: float):
    w, setups = timed_setups(cls, seed, SETUP_REPS)
    gc.collect()
    h = Harness(w)
    h.run(w.prepare(w.warm_ops), array("d"))
    rss = peak_rss_mib()
    h.timed(seconds)
    problems = w.final_check()
    sm = h.summary()
    metrics = {k: sm[k] for k in ("ops_per_s", "op_p50_us", "op_p99_us")}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = rss
    notes = [f"{len(h.batches)} batches of {w.batch_ops} ops, "
             f"{h.timed_ops()} timed ops (the percentiles' samples) taking "
             f"{h.busy():.2f} s, {w.warm_ops} warm-up ops, "
             f"{SETUP_REPS} set-ups",
             f"speed factor {sm['speed_factor']:.4f} (unscaled ops_per_s "
             f"{sm['raw_ops_per_s']:.6g}, op_p50_us "
             f"{sm['raw_op_p50_us']:.6g})"]
    return h, problems, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, \
        notes


def dispatch_counters(w):
    """(dispatches, fallback fires, fallback entries) from the outbound
    bridge's DispatchStats, or zeros when it has none."""
    stats = getattr(w.interp.outbound, "stats", None)
    fires = getattr(stats, "fallback_fires", None)
    if not isinstance(fires, dict) or not hasattr(stats, "dispatches"):
        print("trace: no outbound DispatchStats, counters reported as 0",
              file=sys.stderr)
        return 0, 0, 0
    return stats.dispatches, sum(fires.values()), len(fires)


def traced(cls, name: str, seed: int, seconds: float):
    import spans

    # untraced reference for the overhead ratio and the speed figures
    w, _ = timed_setups(cls, seed, 1)
    untraced = Harness(w)
    untraced.run(w.prepare(w.warm_ops), array("d"))
    untraced.timed(seconds * 0.25)
    speed = untraced.summary()
    del w
    gc.collect()

    rec = spans.Recorder()
    rec.install()
    try:
        w, _ = timed_setups(cls, seed, TRACE_SETUP_REPS)
        per_setup = rec.totals()
        rec.reset()
        h = Harness(w)
        h.run(w.prepare(max(1, w.warm_ops // 10)), array("d"))
        before = dispatch_counters(w)
        rec.reset()
        h.timed(seconds * 0.75, op=rec.wrap(spans.OP, w.op))
        per_op = rec.totals()
        after = dispatch_counters(w)
        counters = (after[0] - before[0], after[1] - before[1], after[2],
                    rec.incompatible, rec.viable)
    finally:
        rec.uninstall()
    problems = w.final_check()

    ops = h.timed_ops()
    # ns of self time -> us at the reference speed
    us = h.factor() / 1e3
    metrics = {}
    for layer in spans.LAYERS:
        if layer in spans.SETUP_LAYERS:
            calls, ns = per_setup[layer]
            metrics[layer + ".calls"] = (calls / TRACE_SETUP_REPS,
                                         "calls/setup")
            metrics[layer + ".self_us"] = (ns * us / TRACE_SETUP_REPS,
                                           "us/setup")
        else:
            calls, ns = per_op[layer]
            metrics[layer + ".calls"] = (calls / ops, "calls/op")
            metrics[layer + ".self_us"] = (ns * us / ops, "us/op")
    dispatches, fires, entries, incompatible, viable = counters
    to_host_calls = per_op["convert.to_host"][0]
    convert_calls = per_op["convert.convert_args"][0]
    metrics["outbound.dispatches"] = (dispatches / ops, "1/op")
    metrics["outbound.fallback_fires"] = (fires / ops, "1/op")
    metrics["outbound.fallback_entries"] = (entries / h.ops, "entries/op")
    metrics["convert.to_host_incompatible"] = (
        incompatible / to_host_calls if to_host_calls else 0.0, "ratio")
    metrics["convert.convert_args_viable"] = (
        viable / convert_calls if convert_calls else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (
        speed["ops_per_s"] / h.summary()["ops_per_s"], "ratio")
    metrics["speed.factor"] = (speed["speed_factor"], "ratio")
    metrics["speed.raw_ops_per_s"] = (speed["raw_ops_per_s"], "1/s")
    metrics["speed.raw_op_p50_us"] = (speed["raw_op_p50_us"], "us")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-{seed}.json"
    rec.write(path, {"workload": name, "seed": seed, "ops": ops})
    notes = [f"traced {ops} ops taking {h.busy():.2f} s, "
             f"{rec.total} spans, {len(rec.s_name)} kept in {path}"]
    # every op run counts toward attempted and failed, untraced ones too
    h.ops += untraced.ops
    h.failed += untraced.failed
    h.first_error = h.first_error or untraced.first_error
    return h, problems, metrics, notes


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    load_package()
    from workloads import WORKLOADS
    cls = WORKLOADS[name]
    if trace:
        h, problems, metrics, notes = traced(cls, name, seed, seconds)
    else:
        h, problems, metrics, notes = measure(cls, seed, seconds)
    print(f"workload {name}, seed {seed}: " + "; ".join(notes))
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':40s} {h.failed / h.ops:14.6g} "
          f"({h.failed} of {h.ops} ops)")
    if h.first_error:
        print(f"first failure: {h.first_error}", file=sys.stderr)
    for p in problems:
        print(f"end check: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": h.failed == 0 and not problems,
        "attempted": h.ops,
        "failed": h.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    load_package()
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=2 * seconds + 120,
            check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"run.py: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
