"""Evaluator semantics: scoping, tables, fallbacks, control flow.

Several loops here exist in two spellings of the same computation, one
with a literal on the right of its loop condition and one with it on
the left; both must agree in results and in error messages.
"""

import pytest

from bridgescript.errors import (
    KeyIsNil,
    NotCallable,
    ParseError,
    ScriptRuntimeError,
)
from bridgescript.objects import (
    NIL,
    NativeFunction,
    Table,
    raw_set,
    set_fallback,
    table_get,
    table_set,
)


def run(interp, out, src):
    interp.run(src)
    return out.getvalue()


# ------------------------------------------------------------------ basics

def test_print_and_arithmetic(bare_interp, out):
    assert run(bare_interp, out, "print(1 + 2 * 3, 10 / 4)") == "7\t2.5\n"


def test_number_rendering(bare_interp, out):
    src = "print(3.0, 0.1 + 0.2, 1e3, 2e300 * 2e300, -1 / 0, 0 / 0)"
    assert run(bare_interp, out, src) == "3\t0.3\t1000\tinf\t-inf\tnan\n"


def test_string_ops(bare_interp, out):
    assert run(bare_interp, out, "print('a' .. 'b', 'n=' .. 1)") == \
        "ab\tn=1\n"


def test_concat_type_error(bare_interp):
    with pytest.raises(ScriptRuntimeError) as e:
        bare_interp.run("x = 'a' .. true")
    assert "concatenate a boolean" in str(e.value)


def test_equality_semantics(bare_interp, out):
    src = """
t1 = {}
t2 = {}
print(1 == 1.0, 'a' == 'a', t1 == t1, t1 == t2, 1 == '1', nil == nil)
print(1 ~= 2, t1 ~= t2)
"""
    assert run(bare_interp, out, src) == \
        "true\ttrue\ttrue\tfalse\tfalse\ttrue\ntrue\ttrue\n"


def test_type_names(bare_interp, out):
    src = "print(type(nil), type(1), type('s'), type(true), type({}), type(print))"
    assert run(bare_interp, out, src) == \
        "nil\tnumber\tstring\tboolean\ttable\tfunction\n"


def test_tostring(bare_interp, out):
    assert run(bare_interp, out, "print(tostring(nil), tostring(12))") == \
        "nil\t12\n"


def test_tostring_of_tables_and_functions(bare_interp, out):
    printed = run(bare_interp, out,
                  "local a = {}\nlocal b = {}\n"
                  "print(tostring(a), tostring(b), tostring(function() end))"
                  ).rstrip("\n").split("\t")
    assert printed[0].startswith("table: 0x")
    assert printed[1].startswith("table: 0x")
    assert printed[0] != printed[1]
    assert printed[2].startswith("function: 0x")


# ----------------------------------------------------------------- scoping

def test_chunk_locals_do_not_leak(bare_interp, out):
    bare_interp.run("local hidden = 5")
    assert run(bare_interp, out, "print(hidden)") == "nil\n"


def test_assignment_falls_through_to_global(bare_interp):
    bare_interp.run("function f() counter = 9 end f()")
    assert bare_interp.global_value("counter") == 9.0


def test_local_shadows(bare_interp, out):
    src = """
x = 'global'
function f()
  local x = 'local'
  return x
end
print(f(), x)
"""
    assert run(bare_interp, out, src) == "local\tglobal\n"


def test_closures_capture_environment(bare_interp, out):
    src = """
function make()
  local n = 0
  return function()
    n = n + 1
    return n
  end
end
c1 = make()
c2 = make()
print(c1(), c1(), c2())
"""
    assert run(bare_interp, out, src) == "1\t2\t1\n"


def test_local_function_literal_can_recurse(bare_interp):
    src = """
local fact = function(n)
  if n <= 1 then return 1 end
  return n * fact(n - 1)
end
return fact(5)
"""
    assert bare_interp.run(src) == [120.0]


def test_loop_iterations_keep_separate_body_locals(bare_interp, out):
    src = """
fs = {}
local i = 1
while i <= 3 do
  local v = i * 10
  fs[i] = function() return v end
  i = i + 1
end
for j = 4, 5 do
  local w = j * 10
  fs[j] = function() return w end
end
print(fs[1](), fs[2](), fs[3](), fs[4](), fs[5]())
"""
    assert run(bare_interp, out, src) == "10\t20\t30\t40\t50\n"


def test_closures_of_one_for_run_share_its_variable(bare_interp, out):
    src = """
fs = {}
for i = 1, 3 do
  fs[i] = function() return i end
end
print(fs[1](), fs[2](), fs[3]())
"""
    assert run(bare_interp, out, src) == "3\t3\t3\n"


def test_captured_parameter_is_shared_with_inner_closure(bare_interp, out):
    src = """
function counter(n)
  local bump = function() n = n + 1 end
  bump()
  bump()
  return n, function() return n end
end
local now = counter(5)
local later = counter(7)
print(now, later)
"""
    assert run(bare_interp, out, src) == "7\t9\n"


def test_closure_does_not_see_a_later_local(bare_interp, out):
    # the local is declared after the closure, so the closure names the
    # global of the same name
    src = """
x = 'global'
local f = function() return x end
local x = 'local'
print(f(), x)
"""
    assert run(bare_interp, out, src) == "global\tlocal\n"


def test_redeclared_local_is_a_new_variable(bare_interp, out):
    src = """
local x = 1
local f = function() return x end
local x = 2
print(f(), x)
"""
    assert run(bare_interp, out, src) == "1\t2\n"


def test_missing_args_are_nil(bare_interp, out):
    src = "function f(a, b) return type(b) end print(f(1))"
    assert run(bare_interp, out, src) == "nil\n"


def test_invoke_pads_and_cuts_to_every_parameter_count(bare_interp):
    # functions of 0-4 parameters, each returning them all, called on
    # closures with 0-5 arguments: missing ones are nil, extra ones cut
    for n in range(5):
        params = ", ".join(f"p{i}" for i in range(n))
        f = bare_interp.run(f"return function({params}) "
                            f"return {params or 'nil'} end")[0]
        for given in range(6):
            args = [float(i) for i in range(given)]
            want = (args + [NIL] * n)[:n] if n else [NIL]
            assert f.invoke(args) == want, (n, given)
            assert len(args) == given  # the caller's list is left alone


def test_call_returns_first_value_in_expression(bare_interp, out):
    src = "function f() return 1, 2 end x = f() print(x)"
    assert run(bare_interp, out, src) == "1\n"


def test_chunk_return_values(bare_interp):
    assert bare_interp.run("return 1, 'a'") == [1.0, "a"]
    assert bare_interp.run("x = 1") == []


# ------------------------------------------------------------------ tables

def test_table_fields(bare_interp, out):
    src = """
t = {a = 1}
t.b = 2
t['c'] = t.a + t.b
t[1] = 'one'
print(t.a, t.c, t[1], t.missing)
"""
    assert run(bare_interp, out, src) == "1\t3\tone\tnil\n"


def test_nil_write_removes_key(bare_interp, out):
    src = "t = {a = 1} t.a = nil print(t.a)"
    assert run(bare_interp, out, src) == "nil\n"
    assert "a" not in bare_interp.global_value("t").entries


def test_numeric_and_string_keys_are_distinct(bare_interp, out):
    src = "t = {} t[1] = 'num' t['1'] = 'str' print(t[1], t['1'])"
    assert run(bare_interp, out, src) == "num\tstr\n"


def test_nil_key_rejected(bare_interp):
    with pytest.raises(KeyIsNil):
        bare_interp.run("t = {} t[nil] = 1")


def test_nan_key_store_rejected_with_its_line(bare_interp):
    with pytest.raises(ScriptRuntimeError, match="table key is NaN") as e:
        bare_interp.run("t = {}\nt[0/0] = 1")
    assert e.value.line == 2
    assert bare_interp.global_value("t").entries == {}
    with pytest.raises(ScriptRuntimeError, match="table key is NaN"):
        table_set(bare_interp.global_value("t"), float("nan"), 1.0)


def test_indexing_non_table(bare_interp):
    with pytest.raises(ScriptRuntimeError) as e:
        bare_interp.run("x = 5 y = x.field")
    assert "index a number" in str(e.value)


def test_calling_non_function(bare_interp):
    with pytest.raises(NotCallable):
        bare_interp.run("x = 5 x()")
    with pytest.raises(NotCallable) as e:
        bare_interp.run("point = {move = 7} point:move()")
    assert "number" in str(e.value)


# --------------------------------------------------------------- fallbacks

def test_index_fallback_fires_only_on_miss():
    t = Table()
    fired = []

    def handler(args):
        fired.append(args[1])
        return ["filled:" + args[1]]

    set_fallback(t, "index", NativeFunction(handler, "h"))
    raw_set(t, "present", 1.0)
    assert table_get(t, "present") == 1.0
    assert fired == []
    assert table_get(t, "absent") == "filled:absent"
    assert fired == ["absent"]


def test_newindex_fallback_intercepts_all_writes():
    t = Table()
    writes = []

    def handler(args):
        writes.append((args[1], args[2]))
        return []

    set_fallback(t, "newindex", NativeFunction(handler, "h"))
    raw_set(t, "a", 1.0)       # bypasses the handler
    table_set(t, "a", 2.0)     # intercepted even though the key exists
    table_set(t, "b", 3.0)
    assert writes == [("a", 2.0), ("b", 3.0)]
    assert t.entries["a"] == 1.0  # handler did not store
    assert "b" not in t.entries


def test_fallbacks_reachable_from_script(bare_interp, out):
    t = Table()
    set_fallback(t, "index", NativeFunction(lambda a: ["auto"], "h"))
    bare_interp.define_global("t", t)
    assert run(bare_interp, out, "print(t.anything)") == "auto\n"


@pytest.mark.parametrize("kind", ["index", "newindex"])
@pytest.mark.parametrize("handler", [NIL, 5.0, "h", Table()],
                         ids=["nil", "number", "string", "table"])
def test_fallback_that_is_not_a_function_is_refused_at_install(kind, handler):
    t = Table()
    with pytest.raises(TypeError, match=f"^{kind} fallback must be a "
                                        f"function, got "):
        set_fallback(t, kind, handler)
    # nothing was installed: reads miss and writes store
    table_set(t, "x", 1.0)
    assert table_get(t, "x") == 1.0
    assert table_get(t, "y") is NIL


def test_none_removes_a_fallback():
    t = Table()
    set_fallback(t, "index", NativeFunction(lambda a: ["auto"], "h"))
    set_fallback(t, "newindex", NativeFunction(lambda a: [], "h"))
    set_fallback(t, "index", None)
    set_fallback(t, "newindex", None)
    table_set(t, "x", 1.0)
    assert table_get(t, "x") == 1.0
    assert table_get(t, "y") is NIL


# ------------------------------------------------------------ control flow

def test_if_elseif_else(bare_interp, out):
    src = """
function grade(n)
  if n < 10 then return 'low'
  elseif n < 20 then return 'mid'
  else return 'high' end
end
print(grade(5), grade(15), grade(25))
"""
    assert run(bare_interp, out, src) == "low\tmid\thigh\n"


def test_truthiness(bare_interp, out):
    src = """
function pick(v) if v then return 'y' else return 'n' end end
print(pick(false), pick(nil), pick(0), pick(''))
"""
    # only nil and false are falsy
    assert run(bare_interp, out, src) == "n\tn\ty\ty\n"


def test_while_loop(bare_interp, out):
    src = "i = 0 s = 0 while i < 5 do s = s + i i = i + 1 end print(s, i)"
    assert run(bare_interp, out, src) == "10\t5\n"


def test_for_loop(bare_interp, out):
    bare_interp.run("s = 0 for i = 1, 4 do s = s + i end print(s)")
    bare_interp.run("s = 0 for i = 10, 1, -3 do s = s + i end print(s)")
    assert out.getvalue() == "10\n22\n"


def test_for_loop_var_is_scoped(bare_interp, out):
    assert run(bare_interp, out, "for i = 1, 3 do end print(i)") == "nil\n"


def test_for_zero_step(bare_interp):
    with pytest.raises(ScriptRuntimeError) as e:
        bare_interp.run("for i = 1, 3, 0 do end")
    assert "zero" in str(e.value)


def test_return_exits_nested_blocks(bare_interp, out):
    src = """
function f()
  for i = 1, 100 do
    if i * i > 10 then return i end
  end
  return -1
end
print(f())
"""
    assert run(bare_interp, out, src) == "4\n"


# ---------------------------------------- literal-right vs general loops

def test_counter_loop_matches_manual_sum(bare_interp, out):
    # same computation, the literal once on each side of the comparison
    literal_right = "local i = 0 local s = 0 while i < 7 do s = s + i i = i + 1 end return s"
    general = "local i = 0 local s = 0 while 7 > i do s = s + i i = i + 1 end return s"
    assert bare_interp.run(literal_right) == bare_interp.run(general) == [21.0]


def test_counter_rebound_inside_body(bare_interp):
    src = "local j = 0 while j < 100 do j = j * 2 + 1 j = j + 1 end return j"
    assert bare_interp.run(src) == [126.0]


def test_shadowing_local_defeats_counter(bare_interp):
    # the body's own local k is not the loop counter k
    src = """
local n = 0
local k = 0
while k < 3 do
  local k = 99
  n = n + 1
  if n >= 5 then return n end
  k = k + 1
end
return -1
"""
    assert bare_interp.run(src) == [5.0]


def test_return_from_fused_loop(bare_interp):
    src = "local i = 0 while i < 10 do if i >= 4 then return i end i = i + 1 end"
    assert bare_interp.run(src) == [4.0]


def test_inclusive_and_exclusive_bounds(bare_interp):
    lt = "local i = 0 local c = 0 while i < 5 do c = c + 1 i = i + 1 end return c"
    le = "local i = 0 local c = 0 while i <= 5 do c = c + 1 i = i + 1 end return c"
    assert bare_interp.run(lt) == [5.0]
    assert bare_interp.run(le) == [6.0]


def test_decrementing_counter(bare_interp):
    src = "local i = 9 local c = 0 while i < 12 do c = c + 1 i = i - -1 end return c"
    assert bare_interp.run(src) == [3.0]


@pytest.mark.parametrize("src, fragment", [
    ("local z = 's' while z < 3 do z = z + 1 end",
     "compare string with number"),
    ("while q < 3 do q = q + 1 end",
     "compare nil with number"),
    ("local w = 0 while w < 3 do w = 'x' end",
     "compare string with number"),
    ("local v = 0 while v < 3 do v = {} end",
     "compare table with number"),
])
def test_loop_error_messages(bare_interp, src, fragment):
    with pytest.raises(ScriptRuntimeError) as e:
        bare_interp.run(src)
    assert fragment in str(e.value)


def test_arith_error_reports_nil(bare_interp):
    with pytest.raises(ScriptRuntimeError) as e:
        bare_interp.run("x = nil\ny = x + 1")
    assert "arithmetic on a nil value" in str(e.value)
    assert e.value.line == 2


def test_unary_minus_type_error(bare_interp):
    with pytest.raises(ScriptRuntimeError):
        bare_interp.run("x = -'s'")


# ------------------------------------------------------- stack exhaustion

def test_unbounded_recursion_is_a_script_error(bare_interp):
    with pytest.raises(ScriptRuntimeError) as e:
        bare_interp.run("function f(n)\n  return f(n + 1)\nend\nf(1)")
    assert "stack overflow" in str(e.value)
    assert e.value.line == 2


def test_deep_expression_is_a_script_error(bare_interp):
    # parses flat, but compiles to a tree too deep for Python's stack
    with pytest.raises(ScriptRuntimeError) as e:
        bare_interp.run("x = " + "1 + " * 5000 + "1")
    assert "stack overflow" in str(e.value)


_CHAINS = "f = function() return f end\nt = {}\nt.t = t\n"


@pytest.mark.parametrize("n", [1000, 5000])
@pytest.mark.parametrize("chain", [
    lambda n: "1 + " * (n - 1) + "1",
    lambda n: "f" + "()" * n,
    lambda n: "t" + ".t" * n,
], ids=["plus", "call", "index"])
def test_long_chain_overflows_at_its_line(bare_interp, chain, n):
    # the parser builds a chain in a loop; compiling it recurses per node
    with pytest.raises(ScriptRuntimeError) as e:
        bare_interp.run(_CHAINS + "x = 1\ny = " + chain(n))
    assert str(e.value) == "ScriptRuntimeError (line 5): stack overflow"


def test_chains_of_800_still_run(bare_interp):
    src = (_CHAINS + "a = " + "1 + " * 799 + "1\nb = f" + "()" * 800
           + "\nc = t" + ".t" * 800 + "\nreturn a, b == f, c == t")
    assert bare_interp.run(src) == [800.0, True, True]


def test_deep_nesting_is_a_parse_error(bare_interp):
    src = "x = 1\ny = " + "(" * 2000 + "1" + ")" * 2000
    with pytest.raises(ParseError) as e:
        bare_interp.run(src)
    assert e.value.line == 2


def test_hundred_nested_parentheses_parse(bare_interp):
    bare_interp.run("x = " + "(" * 100 + "1" + ")" * 100)
    assert bare_interp.global_value("x") == 1


# -------------------------------------------------- colon-call evaluation

def test_colon_receiver_evaluated_once(bare_interp, out):
    src = """
calls = 0
obj = {}
function obj:ping() return 'pong' end
holder = {}
holder[1] = obj
function pick()
  calls = calls + 1
  return holder
end
print(pick()[1]:ping(), calls)
"""
    assert run(bare_interp, out, src) == "pong\t1\n"


def test_colon_and_explicit_self_agree(bare_interp, out):
    src = """
t = {v = 10}
function t:get() return self.v end
print(t:get(), t['get'](t))
"""
    assert run(bare_interp, out, src) == "10\t10\n"


# ---------------------------------------------------------------- dostring

def test_dostring_runs_in_globals(bare_interp, out):
    bare_interp.run("dostring('shared = 4')")
    assert run(bare_interp, out, "print(shared)") == "4\n"


def test_dostring_type_check(bare_interp):
    with pytest.raises(ScriptRuntimeError):
        bare_interp.run("dostring(5)")
