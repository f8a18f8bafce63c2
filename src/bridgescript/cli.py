"""bs: run scripts, poke at the console, benchmark the bridge.

Every entry point builds the demo registry, so scripts can always reach
the bundled demo.* and bench.* classes.  Exit codes: 0 success, 1 script
error, 2 usage or I/O error.
"""

import argparse
import json
import sys

from .bench import format_report, run_bench, to_record
from .demo import build_demo_interpreter
from .errors import BenchmarkError, BridgeScriptError, IterationsTooSmall
from .interp import eval_chunk
from .objects import render
from .parser import parse_source

_DEMO_SETUP = """
frame = hostNewInstance("demo.Frame", "Console")
ta = hostNewInstance("demo.TextArea")
button = hostNewInstance("demo.Button", "Run")
frame:add("Center", ta)
frame:add("South", button)
__console = {}
function __console:actionPerformed(ev)
  dostring(ta:getText())
end
hostExport(__console, "demo.ActionListener")
button:addActionListener(__console)
frame:pack()
frame:show()
print("console wired: ta:setText(\\"x = 42\\") then button:press()")
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bs",
        description="embeddable scripting language with a host bridge")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a script file")
    p_run.add_argument("file")

    sub.add_parser("repl", help="interactive console")

    p_eval = sub.add_parser("eval", help="evaluate a one-liner")
    p_eval.add_argument("-e", "--expr", required=True,
                        help="expression or statements to evaluate")

    p_bench = sub.add_parser("bench", help="call-overhead benchmark")
    p_bench.add_argument("--iterations", type=int, default=1_000_000)
    p_bench.add_argument("--json", action="store_true",
                         help="emit the report as JSON (times in ns)")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args.file)
    if args.command == "repl":
        return _cmd_repl()
    if args.command == "eval":
        return _cmd_eval(args.expr)
    return _cmd_bench(args.iterations, args.json)


def _cmd_run(path: str) -> int:
    try:
        with open(path, encoding="utf-8-sig") as f:  # a UTF-8 BOM is skipped
            source = f.read()
    except (OSError, UnicodeDecodeError) as e:
        reason = getattr(e, "strerror", None) or e
        print(f"bs: cannot read {path}: {reason}", file=sys.stderr)
        return 2
    interp = build_demo_interpreter()
    try:
        interp.run(source)
    except BridgeScriptError as e:
        print(f"bs: {e}", file=sys.stderr)
        return 1
    return 0


def _cmd_eval(source: str) -> int:
    interp = build_demo_interpreter()
    try:
        vals = _eval_line(interp, source)
    except BridgeScriptError as e:
        print(f"bs: {e}", file=sys.stderr)
        return 1
    if vals:
        print("\t".join(render(v) for v in vals))
    return 0


def _cmd_repl() -> int:
    interp = build_demo_interpreter()
    _install_demo(interp)
    interactive = sys.stdin.isatty()
    prompt = "> " if interactive else ""
    if interactive:
        print("bridgescript console: 'exit' leaves, demo() wires the "
              "widget demo")
    while True:
        try:
            line = input(prompt)
        except EOFError:
            if interactive:
                print()
            return 0
        if line.strip() == "exit":
            return 0
        if not line.strip():
            continue
        try:
            vals = _eval_line(interp, line)
        except BridgeScriptError as e:
            print(str(e))
            continue
        if vals:
            print("\t".join(render(v) for v in vals))


def _cmd_bench(iterations: int, as_json: bool) -> int:
    try:
        report = run_bench(iterations)
    except IterationsTooSmall as e:
        print(f"bs: {e}", file=sys.stderr)
        return 2
    except BenchmarkError as e:
        print(f"bs: {e}", file=sys.stderr)
        return 1
    if as_json:
        print(json.dumps(to_record(report)))
    else:
        print(format_report(report))
    return 0


def _eval_line(interp, source: str) -> list:
    """Evaluate a line the way a console should: bare expressions yield
    their value, everything else runs as statements."""
    chunk = None
    try:
        chunk = parse_source("return " + source)
    except BridgeScriptError:
        pass
    if chunk is None:
        return interp.run(source)
    return eval_chunk(chunk, interp.globals)


def _install_demo(interp) -> None:
    from .objects import NativeFunction

    def _demo(args: list) -> list:
        interp.run(_DEMO_SETUP)
        return []

    interp.define_global("demo", NativeFunction(_demo, "demo"))


if __name__ == "__main__":
    sys.exit(main())
