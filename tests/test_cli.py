"""Command line surface: run, eval, repl, bench, and the exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from bridgescript.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _bs(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "bridgescript", *args],
        capture_output=True, text=True, input=stdin, timeout=120)


# ------------------------------------------------------------------- bs run


def test_run_executes_a_script(tmp_path, capsys):
    script = tmp_path / "hello.bs"
    script.write_text('print("hello", 1 + 1)\n', encoding="utf-8")
    assert main(["run", str(script)]) == 0
    assert capsys.readouterr().out == "hello\t2\n"


def test_run_missing_file_is_a_usage_error(capsys):
    assert main(["run", "/no/such/file.bs"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bs: cannot read")


def test_run_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    script = tmp_path / "latin.bs"
    script.write_bytes(b"print(1)\n\xff\n")
    assert main(["run", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"bs: cannot read {script}: ")
    assert "Traceback" not in captured.err


def test_run_skips_a_utf8_byte_order_mark(tmp_path, capsys):
    script = tmp_path / "bom.bs"
    script.write_bytes(b"\xef\xbb\xbfprint(\"bom\", 1)\n")
    assert main(["run", str(script)]) == 0
    assert capsys.readouterr().out == "bom\t1\n"


def test_run_script_error_exits_one(tmp_path, capsys):
    script = tmp_path / "boom.bs"
    script.write_text("x = nil + 1\n", encoding="utf-8")
    assert main(["run", str(script)]) == 1
    assert capsys.readouterr().err.startswith("bs: ")


def test_run_runaway_recursion_exits_one(tmp_path, capsys):
    script = tmp_path / "deep.bs"
    script.write_text("function f(n)\n  return f(n + 1)\nend\nf(1)\n",
                      encoding="utf-8")
    assert main(["run", str(script)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bs: ScriptRuntimeError (line 2)")
    assert "stack overflow" in err


def test_run_parse_error_exits_one(tmp_path, capsys):
    script = tmp_path / "bad.bs"
    script.write_text("while true\n", encoding="utf-8")
    assert main(["run", str(script)]) == 1
    assert capsys.readouterr().err.startswith("bs: ")


def test_run_reaches_the_demo_classes(tmp_path, capsys):
    script = tmp_path / "demo.bs"
    script.write_text('p = javaNewInstance("demo.Point", 3, 4)\n'
                      "print(p.x + p.y)\n", encoding="utf-8")
    assert main(["run", str(script)]) == 0
    assert capsys.readouterr().out == "7\n"


@pytest.mark.parametrize("name", sorted(
    p.stem for p in DEMOS.glob("*.bs")))
def test_bundled_demos_match_their_goldens(name):
    golden = (DEMOS / f"{name}.out").read_text(encoding="utf-8")
    r = _bs("run", str(DEMOS / f"{name}.bs"))
    assert r.returncode == 0, r.stderr
    assert r.stdout == golden


# ------------------------------------------------------------------ bs eval


def test_eval_prints_expression_values(capsys):
    assert main(["eval", "-e", "1 + 2"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_eval_joins_multiple_values_with_tabs(capsys):
    assert main(["eval", "-e", '1, "a", true']) == 0
    assert capsys.readouterr().out == "1\ta\ttrue\n"


def test_eval_falls_back_to_statements(capsys):
    assert main(["eval", "-e", "x = 6 * 7 print(x)"]) == 0
    assert capsys.readouterr().out == "42\n"


def test_eval_runs_every_statement(capsys):
    # `return print(1) print(2)` is not a chunk, so the line runs as
    # statements
    assert main(["eval", "-e", "print(1) print(2)"]) == 0
    assert capsys.readouterr().out == "1\n2\n"


def test_eval_statements_print_no_value_line(capsys):
    assert main(["eval", "-e", "x = 1"]) == 0
    assert capsys.readouterr().out == ""


def test_eval_of_a_call_returning_nothing_prints_no_value_line(capsys):
    assert main(["eval", "-e", 'print("hi")']) == 0
    assert capsys.readouterr().out == "hi\n"


def test_eval_error_exits_one(capsys):
    assert main(["eval", "-e", "nosuch()"]) == 1
    assert capsys.readouterr().err.startswith("bs: ")


def test_eval_reaches_the_bridge(capsys):
    assert main(["eval", "-e",
                 'javaBindClass("demo.MathUtil").twice(21)']) == 0
    assert capsys.readouterr().out == "42\n"


# ------------------------------------------------------------------ bs repl


def test_repl_evaluates_piped_lines():
    r = _bs("repl", stdin="1 + 2\nexit\n")
    assert r.returncode == 0
    assert r.stdout == "3\n"


def test_repl_keeps_state_between_lines():
    r = _bs("repl", stdin="x = 5\nx * 2\nexit\n")
    assert r.returncode == 0
    assert r.stdout == "10\n"


def test_repl_recovers_after_an_error():
    r = _bs("repl", stdin="nosuch()\n6 * 7\nexit\n")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert any("call a nil value" in line for line in lines)
    assert lines[-1] == "42"


def test_repl_ends_cleanly_on_eof():
    r = _bs("repl", stdin="1 + 1\n")
    assert r.returncode == 0
    assert r.stdout == "2\n"


def test_repl_wires_the_widget_demo():
    r = _bs("repl", stdin='demo()\n'
                          'ta:setText("x = 6 * 9")\n'
                          "button:press()\n"
                          "x\n"
                          "exit\n")
    assert r.returncode == 0
    # the calls return nothing, so they print no value line
    assert r.stdout == ('console wired: ta:setText("x = 42") then '
                        "button:press()\n54\n")


# ----------------------------------------------------------------- bs bench


def test_bench_rejects_tiny_iteration_counts(capsys):
    assert main(["bench", "--iterations", "10"]) == 2
    assert capsys.readouterr().err.startswith("bs: ")


def test_bench_text_report(capsys):
    assert main(["bench", "--iterations", "2000"]) == 0
    text = capsys.readouterr().out
    assert "outbound (script -> host proxy, N=2000)" in text
    assert "reference point (1999 hardware)" in text


def test_bench_json_report(capsys):
    assert main(["bench", "--iterations", "2000", "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["iterations"] == 2000
    assert rec["per_call_outbound_ns"] > rec["per_call_native_ns"] > 0
    assert "per_call_inbound_ns" in rec


# ------------------------------------------------------------------- usage


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
