"""The generated tier agrees with the closure tree.

Loops, function bodies and chunks run on closures until they have run
K iterations or calls, then on Python source generated from them.  Each
case here runs the same code on both tiers and compares return values,
printed output, error classes, error texts and error lines.  A function
body's or chunk's first call runs on closures and its (K+1)-th on
generated code.
"""

import gc
import io
import math
import weakref

import pytest

from bridgescript import Interpreter
from bridgescript.errors import (
    BridgeScriptError,
    KeyIsNil,
    NotCallable,
    ScriptRuntimeError,
)
from bridgescript.interp import eval_chunk
from bridgescript.nodes import K, Block
from bridgescript.objects import (
    NIL,
    Closure,
    NativeFunction,
    Table,
    set_fallback,
    table_get,
    table_set,
)
from bridgescript.parser import parse_source
from bridgescript.registry import (
    FLOAT,
    INTEGER,
    VOID,
    ArrayTag,
    FieldSpec,
    HostClassDescriptor,
    HostRegistry,
    MethodDescriptor,
)


def generated(f: Closure) -> bool:
    """Whether f's body runs as generated source (its code was compiled
    from a string, not from nodes.py)."""
    return f.proto.body.__code__.co_filename.startswith("<")


def snapshot(v, depth=0):
    """A comparable form of a script value: tables by content."""
    if v.__class__ is Table:
        if depth > 3:
            return "table"
        return ("table", sorted((repr(k), snapshot(x, depth + 1))
                                for k, x in v.entries.items()))
    if v.__class__ is float and math.isnan(v):
        return "nan"
    if v.__class__ in (Closure, NativeFunction):
        return "function"
    return v


def world():
    out = io.StringIO()
    it = Interpreter(out=out)

    def fallback(args):
        set_fallback(args[0], args[1], args[2])
        return []

    it.define_global("fallback", NativeFunction(fallback, "fallback"))
    return it, out


def outcome(out, f, args):
    out.seek(0)
    out.truncate()
    try:
        vals = f.invoke(list(args))
    except BridgeScriptError as e:
        return ("error", type(e).__name__, str(e), e.line, out.getvalue())
    return ("ok", [snapshot(v) for v in vals], out.getvalue())


def both_tiers(body: str, *args):
    """The outcome of `function probe(a, b, c) <body> end` on its first
    call (closures) and on its (K+1)-th (generated)."""
    it, out = world()
    it.run("function probe(a, b, c)\n" + body + "\nend")
    f = it.global_value("probe")
    first = outcome(out, f, args)
    assert not generated(f)
    for _ in range(K - 1):
        outcome(out, f, args)
    last = outcome(out, f, args)
    assert generated(f)
    return first, last


# Each case is a function body run with the arguments after it; lines
# count from 2 (line 1 is `function probe(a, b, c)`).
CASES = {
    "literals": ("return 1, 'two', true, false, nil, 1e300 * 1e10",),
    "arith": ("return a + b, a - b, a * b, a / b, -a, - -b, -3", 7.0, 2.0),
    "divide_by_zero": ("return a / 0, -a / 0, 0 / 0, a / -0", 3.0),
    "arith_nil": ("local x = a\nreturn x + 1", NIL),
    "arith_string_right": ("return 1 + a", "s"),
    "arith_two_unknown": ("return a * b", 1.0, True),
    "unary_minus_error": ("local t = {}\nreturn -t",),
    "compare_numbers": ("return a < b, a <= b, a > b, a >= b, a < 3, 3 >= a",
                        2.0, 5.0),
    "compare_strings": ("return a < b, a >= 'b', 'z' > a", "a", "c"),
    "compare_mixed": ("return a < b", 1.0, "x"),
    "compare_literal_right": ("\nreturn a < 'x'", 1.0),
    "compare_bools": ("return a <= b", True, False),
    "compare_known_left": ("return 3 < a, 'x' >= b", 5.0, "w"),
    "compare_known_left_error": ("\nreturn 3 < a", "s"),
    "equality": ("return a == b, a ~= b, a == nil, nil == a, a == 1, "
                 "a == 'x', a == true, {} == {}, b == b", 1.0, "1"),
    "equality_nan": ("local n = 0 / 0\nreturn n == n, n ~= n",),
    "concat": ("return a .. b, a .. 1, 2 .. b, 1 .. 2, 'x' .. 'y'",
               "p", "q"),
    "concat_error": ("local t = {}\n\nreturn a .. t", "p"),
    "concat_nil_left": ("return c .. 'x'",),
    "globals": ("g1 = a\ng2 = g1 .. 'b'\nreturn g1, g2, missing", "x"),
    "locals_and_blocks": ("local x = 1\nif a then local x = 2 y = x end\n"
                          "local z\nreturn x, y, z", True),
    "table_ctor": ("local t = {x = 1, y = nil, z = a, w = {v = 2}}\n"
                   "return t, t.x, t.w.v, t.y", NIL),
    "index_dynamic": ("local t = {k = 5}\nt[1] = 'one'\nt[a] = 2\n"
                      "return t[1], t.k, t[a], t['k'], t[2]", "s"),
    "index_non_table": ("local t = a\n\nreturn t.x", 1.0),
    "index_nil_key": ("local t = {}\nreturn t[a]", NIL),
    "index_bad_key": ("local t = {}\nreturn t[t]",),
    "index_nan_key": ("local t = {}\nreturn t[0 / 0]",),
    "store_non_table": ("local t = 'x'\nt.y = 1",),
    "store_nil_key": ("local t = {}\n\nt[a] = 1", NIL),
    "store_nan_key": ("local t = {}\nt[0 / 0] = 1",),
    "store_bad_key": ("local t = {}\nt[true] = 1",),
    "store_nil_removes": ("local t = {x = 1}\nt.x = nil\nt[a] = 2\n"
                          "t[a] = a2\nreturn t", "k"),
    "index_fallback": ("local t = {}\nfallback(t, 'index', "
                       "function(t, k) return k .. '!' end)\n"
                       "t.x = 1\nreturn t.x, t.y, t[a]", "z"),
    "index_fallback_error": ("local t = {}\nfallback(t, 'index', "
                             "function(t, k) return k + 1 end)\n"
                             "return t.y",),
    "newindex_fallback": ("local t = {}\nlog = ''\nfallback(t, 'newindex', "
                          "function(t, k, v) log = log .. k end)\n"
                          "t.x = 1\nt[a] = nil\nreturn log, t.x", "q"),
    "newindex_fallback_error": ("local t = {}\nfallback(t, 'newindex', "
                                "function(t, k, v) return v + 1 end)\n\n"
                                "t.x = 'no'",),
    "calls": ("local two = function(x, y) return x, y end\n"
              "local none = function() end\n"
              "return two(1), two(1, 2, 3), none(), type(a), tostring(a)",
              2.5),
    "call_non_function": ("local f = a\n\nreturn f(1)", 1.0),
    "call_nil_global": ("return nothing_here()",),
    "call_error_inside": ("local bad = function(x)\n  return x + nil\nend\n"
                          "return bad(1)",),
    "native_error": ("return dostring(1)",),
    "print": ("print(a, b, nil, true)\nprint()", 1.5, "s"),
    "method_calls": ("local o = {n = 1}\n"
                     "function o:add(k) self.n = self.n + k return self end\n"
                     "o:add(2)\ng = o\ng:add(3)\n"
                     "local r = o:add(1):add(1)\nreturn o.n, r == o",),
    "method_on_missing": ("local o = {}\n\no:nope()",),
    "method_on_nil": ("local o = nil\no:nope()",),
    "closures": ("local n = a\nlocal inc = function() n = n + 1 return n end\n"
                 "inc() inc()\nlocal get = function() return n end\n"
                 "return n, get(), inc()", 10.0),
    "upvalues": ("local x = 1\nlocal f = function()\n"
                 "  return function() x = x + 1 return x end\nend\n"
                 "local g = f()\ng()\nreturn g(), x",),
    "assign_captured": ("local x = 1\nlocal f = function() return x end\n"
                        "x = a\nreturn f(), x", 5.0),
    "captured_param": ("local f = function() a = a .. '!' return a end\n"
                       "f()\nreturn f(), a", "p"),
    "local_function_recursion": ("local fact = function(n)\n"
                                 "  if n <= 1 then return 1 end\n"
                                 "  return n * fact(n - 1)\nend\n"
                                 "return fact(a)", 10.0),
    "if_chain": ("local r = ''\nfor i = 1, 5 do\n"
                 "  if i == 1 then r = r .. 'a'\n"
                 "  elseif i == 2 then r = r .. 'b'\n"
                 "  elseif i == 3 then\n  else r = r .. 'z' end\nend\n"
                 "if nil then r = 'no' end\nif 0 then r = r .. '0' end\n"
                 "if '' then r = r .. 'e' end\nreturn r",),
    "if_cond_error": ("if a then\nelseif a < 1 then end", False),
    "while": ("local i = 0\nlocal s = 0\nwhile i < a do\n"
              "  i = i + 1\n  s = s + i\nend\nreturn s, i", 20.0),
    "while_truthiness": ("local n = 0\nwhile n do\n  if n == 3 then "
                         "n = false else n = n + 1 end\nend\nreturn n",),
    "while_cond_error": ("local i = 0\nwhile i < a do i = i + 1 end", "x"),
    "for_forms": ("local s = ''\nfor i = 1, 3 do s = s .. i end\n"
                  "for i = 3, 1, -1 do s = s .. i end\n"
                  "for i = 1, 2, 0.5 do s = s .. i end\n"
                  "for i = a, b, c do s = s .. i end\n"
                  "for i = 1, 0 do s = s .. 'never' end\n"
                  "return s", 10.0, 1.0, -3.0),
    "for_var_assigned": ("local n = 0\nfor i = 1, 3 do\n  i = i * 10\n"
                         "  n = n + i\nend\nreturn n",),
    "for_bounds_error": ("local s = 0\n\nfor i = 1, a do s = s + i end",
                         "x"),
    "for_step_error": ("for i = 1, 2, a do end", 0.0),
    "for_step_literal_zero": ("for i = 1, 2, 0 do end",),
    "for_closures_share": ("local fs = {}\nfor i = 1, 3 do\n"
                           "  fs[i] = function() return i end\nend\n"
                           "return fs[1](), fs[3]()",),
    "return_from_nested": ("for i = 1, 10 do\n  while true do\n"
                           "    if i == a then return i, 'found' end\n"
                           "    passed = true\n    i = i + 100\n"
                           "    if i > 0 then return 'early' end\n"
                           "  end\nend", 3.0),
    "bare_return": ("if a then return end\nreturn 1", True),
    "arity": ("local f = function(x, y, z) return z end\n"
              "return f(1, 2), f(1, 2, 3, 4), (function() return 9 end)()",),
    "colon_on_expression": ("local o = {v = 4}\nfunction o:get() "
                            "return self.v end\nlocal h = {o = o}\n"
                            "return h.o:get()",),
    "colon_on_number_with_args": ("local o = a\n\no:f(b, c)", 1.0, 2.0),
    "colon_missing_on_expression": ("local h = {o = {}}\n\n"
                                    "return h.o:nope(a)", 1.0),
    "colon_nested_with_local_arg": (
        "local o = {v = 4}\nfunction o:get() return self.v end\n"
        "local h = {o = o}\nlocal m = {w = 10}\n"
        "function m:f(p, q) return self.w + p + q end\n"
        "local t = {}\nt[1] = m\nlocal x = a\n"
        "return t[1]:f(x, h.o:get())", 3.0),
    # small callees written in place at the sites that call them
    "inline_arity": ("local f = function(x, y) return y, x end\n"
                     "return f(a), f(a, b), f(a, b, c), (f(b, a))",
                     1.0, 2.0, 3.0),
    "inline_statement_and_values": (
        "local n = 0\nlocal bump = function(k) n = n + k end\n"
        "local none = function() end\nlocal pair = function(x)\n"
        "  return x, bump(x)\nend\nbump(a)\nnone()\n"
        "return pair(2) + n, none(), n", 5.0),
    "inline_error": ("local bad = function(t)\n  local k = 'x'\n"
                     "  return t[k] + 1\nend\nlocal r = bad(a)", 1.0),
    "inline_error_after_effects": (
        "local t = {}\nlocal put = function(v)\n  t.v = v\n"
        "  t.w = v .. '!'\nend\nput(a)", True),
    "inline_native_error": ("local f = function(x)\n  return dostring(x)\n"
                            "end\nreturn (f(1))",),
    "inline_recursion": ("local g = function(n) return probe(n + 1) end "
                         "return (g(a))", 1.0),
    "inline_index_fallback": (
        "local base = {}\nfunction base:get(k) return self.v .. k end\n"
        "function base:miss() return self.nope end\n"
        "local o = {v = 'o'}\nfallback(o, 'index', "
        "function(t, k) return base[k] end)\n"
        "return o:get('!'), o:get(a), o:miss(), 0", "?"),
    "inline_globals_and_upvals": (
        "local k = 10\nlocal add = function(x) k = k + x g1 = k "
        "return g1 end\nreturn add(a), add(a), k, g1", 1.0),
    "inline_if_in_callee": (
        "local pick = function(x) local r = 'no' "
        "if x then r = 'yes' end return r end\n"
        "return pick(a), pick(nil), pick(false), 0", 0.0),
    # callees that return before their end, written in place
    "inline_return_under_if": (
        "local f = function(x) if x then return 'a' end return 'b' end\n"
        "return f(a), f(nil), f(false), 0", True),
    "inline_return_under_elseif_and_else": (
        "local f = function(x)\n  if x == 1 then return 'one'\n"
        "  elseif x == 2 then return 'two'\n  else return 'many' end\nend\n"
        "return f(1), f(2), f(a), 0", 7.0),
    "inline_return_in_nested_ifs": (
        "local f = function(x, y)\n  if x then\n"
        "    if y then return 'xy' end\n    return 'x'\n  end\n"
        "  if y then return 'y' end\nend\n"
        "return f(a, b), f(a, nil), f(nil, b), f(nil, nil), 0", 1.0, 2.0),
    "inline_bare_return": (
        "local n = 0\nlocal f = function(x)\n  if x then return end\n"
        "  n = n + 1\n  return 'on'\nend\n"
        "local r = f(a)\nreturn r, f(nil), n, f(a), 0", True),
    "inline_early_return_of_several_values": (
        "local n = 0\nlocal f = function(x)\n"
        "  if x then return x, 'more', n + 1 end\n  return 'none', 'more'\n"
        "end\nlocal r = f(a)\nlocal s = f(nil)\nreturn r, s, (f(a)), 0", "v"),
    "inline_early_return_of_several_values_error": (
        "local f = function(x)\n  if x then return 1, x + nil end\n"
        "  return 2\nend\nlocal r = f(nil)\nr = f(a)", 1.0),
    "inline_error_after_untaken_return": (
        "local f = function(t)\n  if t == nil then return 0 end\n"
        "  return t.x + 1\nend\nlocal r = f(nil)\nr = f(a)", "str"),
    "inline_return_of_a_call": (
        "local two = function(x) return x, x .. '!' end\n"
        "local f = function(x)\n  if x == 'a' then return two(x) end\n"
        "  return two('b')\nend\nlocal g = function(x) return two(x) end\n"
        "local r = f(a)\nlocal s = g(a)\n"
        "if b then return r, s, (f('z')), (g('y')), f(a) end\nreturn g(a)",
        "a", True),
    # native functions written in place by their one-value form
    "native_type_and_tostring": (
        "local t = {}\nlocal f = function() end\nreturn "
        "type(nil), type(true), type(a), type('s'), type(t), type(f), "
        "type(print), tostring(nil), tostring(false), tostring(true), "
        "tostring(a), tostring(b), tostring(t) == tostring(t), "
        "tostring(f) == tostring(f), tostring(print), 0", 1.5, "s"),
    "native_wanting_all": ("return tostring(a)", 2.0),
    "native_statement": ("tostring(a)\ntype(a)\nreturn type(a)", 2.0),
    "native_other_arities": ("return type(), tostring(a, b), type(a, b), "
                             "tostring(), 0", 1.0, "s"),
    "native_in_a_callee": (
        "local d = function(v)\n"
        "  if type(v) == 'number' then return 'n' .. tostring(v) end\n"
        "  return 't' .. v\nend\nreturn d(a), d(b), d('x') .. d(1), 0",
        3.0, "s"),
    "native_in_a_callee_error": (
        "local d = function(v)\n"
        "  if type(v) == 'number' then return 'n' .. tostring(v) end\n"
        "  return 't' .. v\nend\nlocal r = d(a)\nr = d(b)", 3.0, True),
    # loops whose first iteration is peeled
    "peel_error_first": ("local t = a\nlocal n = 0\nwhile n < 3 do\n"
                         "  n = n + 1\n  local v = t.x\nend\nreturn n", 1.0),
    "peel_error_later": ("local t = {x = 1}\nlocal i = 0\nwhile i < 5 do\n"
                         "  i = i + 1\n  t.x = t.x + 1\n"
                         "  if i == 3 then t.x = a end\nend\nreturn t.x",
                         "s"),
    "peel_for_error_later": ("local t = {}\nfor i = 1, 4 do\n  t[i] = i\n"
                             "  if i == 3 then t = a end\nend", 1.0),
    "peel_zero_times": ("local n = 0\nlocal t = a\n"
                        "while n > 1 do n = t.x end\n"
                        "for i = 1, 0 do n = t.y end\nreturn n", 5.0),
    "peel_assigned_changes_class": ("local x = 1\nlocal y = 2\nlocal z = 0\n"
                                    "for i = 1, 3 do\n  z = x + 1\n"
                                    "  x = y\n  y = 'a'\nend\nreturn z",),
    "peel_unassigned_kept": ("local t = {x = 0}\nlocal s = a\n"
                             "for i = 1, 4 do t.x = t.x + s .. '' end\n"
                             "return t.x", 2.0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_both_tiers_agree(name):
    body, *args = CASES[name]
    first, last = both_tiers(body, *args)
    assert first == last


# A call that ends a return list gives all its values, a call anywhere
# else, or in parentheses, its first (b picks the return statement).
RETURN_LISTS = ("local two = function() return 1, 2 end\n"
                "local none = function() end\n"
                "if b == 1 then return a, two() end\n"
                "if b == 2 then return a, none() end\n"
                "if b == 3 then return two(), a end\n"
                "if b == 4 then return a, (two()) end\n"
                "if b == 5 then return none(), a end\n"
                "return a, fallback ~= nil, dostring('return 1, 2')")


@pytest.mark.parametrize("b, values", [
    (1.0, [7.0, 1.0, 2.0]), (2.0, [7.0]), (3.0, [1.0, 7.0]),
    (4.0, [7.0, 1.0]), (5.0, [NIL, 7.0]), (6.0, [7.0, True, 1.0, 2.0])])
def test_a_call_ending_a_return_list_gives_all_its_values(b, values):
    first, last = both_tiers(RETURN_LISTS, 7.0, b)
    assert first == last == ("ok", values, "")


def test_error_lines_are_the_statement_lines():
    first, last = both_tiers("local x = 1\n\nreturn x + nil")
    assert first[:4] == last[:4] == (
        "error", "ScriptRuntimeError",
        "ScriptRuntimeError (line 4): attempt to perform arithmetic on a "
        "nil value", 4)


# --------------------------------------------------------- switching mid-run

def test_while_switches_mid_run(bare_interp):
    src = ("local i = 0\nlocal s = 0\nwhile i < n do\n"
           "  i = i + 1\n  s = s + i\nend\nreturn s, i")
    n = 3 * K + 7
    bare_interp.define_global("n", float(n))
    assert bare_interp.run(src) == [n * (n + 1) / 2, float(n)]


def test_while_switch_keeps_body_locals_fresh(bare_interp):
    src = ("local i = 0\nlocal fs = {}\nwhile i < n do\n  i = i + 1\n"
           "  local v = i * 2\n  fs[i] = function() return v end\nend\n"
           "return fs[1](), fs[n](), fs[n - 1]()")
    n = 2 * K + 1
    bare_interp.define_global("n", float(n))
    assert bare_interp.run(src) == [2.0, 2.0 * n, 2.0 * (n - 1)]


@pytest.mark.parametrize("start, stop, step", [
    (1, 3 * K, 1), (3 * K, 1, -1), (0.5, K + 0.5, 0.25), (1, 2 * K, None)])
def test_for_switches_mid_run(bare_interp, start, stop, step):
    head = f"for i = {start}, {stop}" + ("" if step is None else f", {step}")
    src = f"local s = 0\nlocal c = 0\n{head} do s = s + i c = c + 1 end\n" \
          "return s, c"
    step = 1 if step is None else step
    values = []
    i = start
    while (i <= stop) if step > 0 else (i >= stop):
        values.append(i)
        i += step
    assert bare_interp.run(src) == [float(sum(values)), float(len(values))]


def test_for_variable_captured_across_the_switch(bare_interp):
    # closures made in one run of a for loop share its variable, also
    # the ones made after the loop moved to generated code
    src = ("local fs = {}\nfor i = 1, n do\n"
           "  fs[i] = function() return i end\nend\n"
           "return fs[1](), fs[n](), fs[" + str(K + 3) + "]()")
    n = 2 * K
    bare_interp.define_global("n", float(n))
    assert bare_interp.run(src) == [float(n)] * 3


def test_for_runs_get_separate_variables(bare_interp):
    bare_interp.run("function run(n)\n  local fs = {}\n"
                    "  for i = 1, n do fs[i] = function() return i end end\n"
                    "  return fs[1]\nend")
    runs = [bare_interp.run(f"return run({n})")[0] for n in (3, K, 2 * K, 5)]
    assert [f.invoke([])[0] for f in runs] == [3.0, float(K), 2.0 * K, 5.0]


def test_return_from_inside_a_hot_loop(bare_interp):
    bare_interp.run("function find(n)\n  local i = 0\n  while true do\n"
                    "    i = i + 1\n    if i == n then return i * 2 end\n"
                    "  end\nend")
    assert bare_interp.run(f"return find({3 * K})") == [6.0 * K]
    assert bare_interp.run("return find(2)") == [4.0]


def test_closure_made_before_its_body_tiered_up(bare_interp):
    bare_interp.run("counter = {count = 0}\n"
                    "function counter:inc() self.count = self.count + 1 end")
    inc = table_get(bare_interp.global_value("counter"), "inc")
    bare_interp.run(f"for i = 1, {K + 10} do counter:inc() end")
    assert generated(inc)
    bare_interp.run("counter:inc()")
    assert bare_interp.run("return counter.count") == [K + 11.0]


def test_hot_unbounded_recursion_is_a_stack_overflow(bare_interp):
    bare_interp.run("function f(n, stop)\n"
                    "  if n ~= stop then return f(n + 1, stop) end\n"
                    "  return n\nend")
    bare_interp.run(f"for i = 1, {K} do f(0, 3) end")
    assert generated(bare_interp.global_value("f"))
    with pytest.raises(ScriptRuntimeError) as e:
        bare_interp.run("f(0, -1)")
    assert "stack overflow" in str(e.value)
    assert e.value.line == 2
    assert bare_interp.run("return f(0, 50)") == [50.0]


def test_dropped_function_goes_without_the_cycle_collector(bare_interp):
    bare_interp.run("function f(x) return x + 1 end")
    proto = weakref.ref(bare_interp.global_value("f").proto)
    gc.disable()
    try:
        bare_interp.run("f = nil")
        assert proto() is None
    finally:
        gc.enable()


# ------------------------------------------- callees written in place

def inlined(f: Closure) -> int:
    """At how many sites f's generated body runs a callee's body written
    in place: each such site keeps that body's tree for its guard."""
    return sum(v.__class__ is Block
               for v in f.proto.body.__globals__.values())


def hot(interp, name: str, *args):
    """Call global function name K + 1 times with args; its last values."""
    f = interp.global_value(name)
    for _ in range(K + 1):
        vals = f.invoke(list(args))
    assert generated(f)
    return vals


@pytest.mark.parametrize("name, sites", [
    ("inline_arity", 2), ("inline_statement_and_values", 4),
    ("inline_error", 1), ("inline_native_error", 1),
    ("inline_recursion", 1), ("inline_index_fallback", 3),
    ("inline_globals_and_upvals", 2), ("inline_if_in_callee", 3),
    ("inline_return_under_if", 3), ("inline_return_under_elseif_and_else", 3),
    ("inline_return_in_nested_ifs", 4), ("inline_bare_return", 3),
    ("inline_early_return_of_several_values", 3),
    ("inline_early_return_of_several_values_error", 2),
    ("inline_error_after_untaken_return", 2), ("inline_return_of_a_call", 4),
    ("native_in_a_callee", 4)])
def test_small_callees_are_written_in_place(name, sites):
    assert inlined(hot_case(name)) == sites


def hot_case(name: str) -> Closure:
    """probe of CASES[name], called K + 1 times, so generated."""
    it, out = world()
    body, *args = CASES[name]
    it.run("function probe(a, b, c)\n" + body + "\nend")
    f = it.global_value("probe")
    for _ in range(K + 1):
        outcome(out, f, args)
    assert generated(f)
    return f


def natives(f: Closure) -> int:
    """How many native functions f's generated body calls by their
    one-value form at some site, each held weakly in its globals."""
    return sum(v.__class__ is weakref.ref
               and getattr(v(), "one", None) is not None
               for v in f.proto.body.__globals__.values())


@pytest.mark.parametrize("name, held", [
    ("native_type_and_tostring", 2), ("native_wanting_all", 1),
    ("native_statement", 2), ("native_other_arities", 0),
    ("native_in_a_callee", 2), ("native_in_a_callee_error", 2)])
def test_natives_are_written_in_place(name, held):
    # type() and type(a, b) stay generic; inside a callee written in
    # place, type(v) and tostring(v) are written in place too
    assert natives(hot_case(name)) == held


def test_inlined_error_after_an_untaken_return_keeps_the_callee_line():
    first, last = both_tiers(*CASES["inline_error_after_untaken_return"])
    assert first == last == (
        "error", "ScriptRuntimeError",
        "ScriptRuntimeError (line 4): attempt to index a string value", 4, "")


def test_natives_in_place_agree_on_host_proxies(interp):
    interp.run("function probe(p, c)\n"
               "  return type(p), tostring(p), type(c), tostring(c), 0\nend")
    args = interp.run("return hostNewInstance('demo.Point', 1, 2), "
                      "hostBindClass('demo.MathUtil')")
    f = interp.global_value("probe")
    first = f.invoke(args)
    assert first[0] == "hostobject" and first[1].startswith("hostobject: ")
    for _ in range(K):
        last = f.invoke(args)
    assert generated(f) and natives(f) == 2
    assert last == first


def test_rebound_native_falls_through_its_guard(bare_interp):
    bare_interp.run("function probe(x)\n  return type(x) .. tostring(x)\nend")
    assert hot(bare_interp, "probe", 1.0) == ["number1"]
    probe = bare_interp.global_value("probe")
    assert natives(probe) == 2
    bare_interp.run("type = function(v) return 'mine:' end\n"
                    "tostring = function(v) return '!' end")
    assert probe.invoke([1.0]) == ["mine:!"]
    bare_interp.run("tostring = print")  # which returns nothing
    with pytest.raises(ScriptRuntimeError) as e:
        probe.invoke([1.0])
    assert (str(e.value), e.value.line) == (
        "ScriptRuntimeError (line 2): attempt to concatenate a nil value", 2)
    bare_interp.run("type = 5")
    with pytest.raises(NotCallable) as e:
        probe.invoke([1.0])
    assert (str(e.value), e.value.line) == (
        "NotCallable (line 2): attempt to call a number value", 2)


def test_hot_unit_keeps_no_dropped_interpreters_native_alive():
    chunk = parse_source(
        "local d = function(v)\n"
        "  if type(v) == 'number' then return tostring(v) end\n"
        "  return v\nend\nreturn d(1), type('s'), 0")
    first = Interpreter(out=io.StringIO())
    for _ in range(K + 1):
        assert eval_chunk(chunk, first.globals) == ["1", "string", 0.0]
    (proto,) = [c.cell_contents for c in chunk.code().__closure__]
    assert chunk_generated(chunk) and _held(proto.body) == 2
    held = [weakref.ref(first.globals[k]) for k in ("type", "tostring")]
    del first
    gc.collect()
    assert [h() for h in held] == [None, None]
    second = Interpreter(out=io.StringIO())
    second.run("function tostring(v) return 'mine' end")
    assert eval_chunk(chunk, second.globals) == ["mine", "string", 0.0]


def test_inlined_error_keeps_the_callee_line():
    first, last = both_tiers(*CASES["inline_error"])
    assert first == last == (
        "error", "ScriptRuntimeError",
        "ScriptRuntimeError (line 4): attempt to index a number value", 4, "")


def test_inlined_recursion_is_a_stack_overflow_at_its_line():
    # both sites are on line 2, since which of two sites a stack overflow
    # names depends on how deep Python's stack was when it began
    first, last = both_tiers(*CASES["inline_recursion"])
    assert first == last == (
        "error", "ScriptRuntimeError",
        "ScriptRuntimeError (line 2): stack overflow", 2, "")


def test_inlined_site_follows_a_swapped_callee(bare_interp):
    bare_interp.run("function mk(k) return function(x) return x + k end end\n"
                    "o = {f = mk(1)}\n"
                    "function probe(x) local r = o.f(x) return r end")
    probe = bare_interp.global_value("probe")
    assert hot(bare_interp, "probe", 1.0) == [2.0]
    assert inlined(probe) == 1
    o = bare_interp.global_value("o")
    # another closure of the same literal passes the guard, with its own
    # upvals; another literal, a native function and a number miss it
    bare_interp.run("o.f = mk(100)")
    assert probe.invoke([1.0]) == [101.0]
    bare_interp.run("o.f = function(x, y) return x .. '!', y end")
    assert probe.invoke([1.0]) == ["1!"]
    table_set(o, "f", NativeFunction(lambda args: [args[0] * 10, 0.0]))
    assert probe.invoke([1.0]) == [10.0]
    bare_interp.run("o.f = 5")
    with pytest.raises(NotCallable) as e:
        probe.invoke([1.0])
    assert (str(e.value), e.value.line) == (
        "NotCallable (line 3): attempt to call a number value", 3)
    bare_interp.run("o.f = mk(-1)")
    assert probe.invoke([1.0]) == [0.0]


def test_hot_loop_writes_a_callee_with_more_slots_in_place(bare_interp):
    # the loop's unit loads and stores back only its own frame's slots
    bare_interp.run("function f(a, b, c) local d = a + b return d * c end")
    n = 3 * K
    bare_interp.define_global("n", float(n))
    assert bare_interp.run("local i = 0\nlocal s = 0\nwhile i < n do\n"
                           "  i = i + 1\n  s = s + f(i, 1, 2)\nend\n"
                           "return s, i") == [float(n * (n + 3)), float(n)]


def test_callee_with_a_loop_or_function_literal_stays_a_call(bare_interp):
    bare_interp.run("function loop(x) while x > 0 do x = x - 1 end "
                    "return x end\n"
                    "function mk(x) return function() return x end end\n"
                    "function big(x) return x + x + x + x + x + x + x + x + x "
                    "+ x + x + x + x + x + x + x + x + x + x + x end\n"
                    "function probe(x) return loop(x), mk(x) ~= nil, "
                    "big(x), 0 end")
    assert hot(bare_interp, "probe", 2.0) == [0.0, True, 40.0, 0.0]
    assert inlined(bare_interp.global_value("probe")) == 0


def test_callee_that_returns_early_is_written_in_place(bare_interp):
    bare_interp.run("function early(x) if x then return 1 end return 2 end\n"
                    "function probe(x) return early(x), early(nil), 0 end")
    assert hot(bare_interp, "probe", 2.0) == [1.0, 2.0, 0.0]
    probe = bare_interp.global_value("probe")
    assert inlined(probe) == 2
    assert probe.invoke([False]) == [2.0, 2.0, 0.0]


def test_function_is_not_written_into_itself(bare_interp):
    bare_interp.run("function down(n) if n > 0 then down(n - 1) end end")
    hot(bare_interp, "down", 3.0)
    assert inlined(bare_interp.global_value("down")) == 0


def test_functions_written_into_each_other_go_without_the_cycle_collector(
        bare_interp):
    bare_interp.run("function a(n) if n > 0 then b(n - 1) end end\n"
                    "function b(n) if n > 0 then a(n - 1) end end")
    hot(bare_interp, "a", 3.0)
    hot(bare_interp, "b", 3.0)
    fa, fb = bare_interp.global_value("a"), bare_interp.global_value("b")
    assert inlined(fa) == inlined(fb) == 1
    protos = [weakref.ref(fa.proto), weakref.ref(fb.proto)]
    del fa, fb
    gc.disable()
    try:
        bare_interp.run("a = nil b = nil")
        assert [p() for p in protos] == [None, None]
    finally:
        gc.enable()


def test_peeled_loop_keeps_checks_of_what_it_assigns(bare_interp):
    # t is never assigned in the loop, so only its first iteration checks
    # it; s and the table read are checked on every iteration
    bare_interp.run("function probe(t, n)\n  local s = 0\n"
                    "  for i = 1, n do\n    s = s + t[i]\n  end\n"
                    "  return s\nend")
    t = Table()
    for i in range(1, 4):
        table_set(t, float(i), float(i))
    assert hot(bare_interp, "probe", t, 3.0) == [6.0]
    table_set(t, 2.0, "x")
    probe = bare_interp.global_value("probe")
    with pytest.raises(ScriptRuntimeError) as e:
        probe.invoke([t, 3.0])
    assert (str(e.value), e.value.line) == (
        "ScriptRuntimeError (line 4): attempt to perform arithmetic on a "
        "string value", 4)
    with pytest.raises(ScriptRuntimeError) as e:
        probe.invoke([1.0, 3.0])
    assert (str(e.value), e.value.line) == (
        "ScriptRuntimeError (line 4): attempt to index a number value", 4)
    assert probe.invoke([1.0, 0.0]) == [0.0]


def _loops_around_a_try() -> int:
    """How many loops Python lets a function nest around a try with an
    except clause, which takes two more of its nested blocks."""
    n = 1
    while True:
        pad = "    " * (n + 2)
        src = "def f():\n" + "".join(
            "    " * (i + 1) + "while x:\n" for i in range(n + 1)) \
            + f"{pad}try: f()\n{pad}except E: raise\n"
        try:
            compile(src, "<probe>", "exec")
        except SyntaxError:
            return n
        n += 1


@pytest.mark.parametrize("spare", [1, 0])
def test_unit_refused_with_a_callee_in_place_is_generated_plain(
        bare_interp, spare):
    # a call site is a try inside its loops, and a call in a callee
    # written in place there is a try inside that one: with no block to
    # spare, Python refuses the unit with leaf in place, and it is
    # generated without
    loops = _loops_around_a_try() - spare
    bare_interp.run("function leaf(x) return tostring(x) end")
    src = ("function deep(n)\n  local c = 0\n"
           + "  while c < n do\n" * loops + "  c = c + 1\n  r = leaf(c)\n"
           + "  end\n" * loops + "  return c\nend")
    bare_interp.run(src)
    assert hot(bare_interp, "deep", 1.0) == [1.0]
    assert (inlined(bare_interp.global_value("deep")) > 0) is bool(spare)
    assert bare_interp.run("return deep(3), r") == [3.0, "3"]


# ------------------------------------------------- source Python refuses

def _hot_calls(interp, name, n):
    interp.run(f"for i = 1, {n} do r = {name}(1) end")
    return interp.global_value("r")


def test_too_many_nested_blocks_stay_on_closures(bare_interp):
    # Python allows 20 statically nested loops and try blocks (21 in a
    # function on 3.13)
    depth = 22
    src = ("function deep(n)\n  local c = 0\n"
           + "  while c < n do\n" * depth + "  c = c + 1\n"
           + "  end\n" * depth + "  return c\nend")
    bare_interp.run(src)
    assert _hot_calls(bare_interp, "deep", K + 5) == 1.0
    assert not generated(bare_interp.global_value("deep"))
    assert bare_interp.run("return deep(2)") == [2.0]


def test_too_many_indent_levels_stay_on_closures(bare_interp):
    # Python allows 100 levels of indentation
    depth = 101
    src = ("function deep(n)\n  local c = 0\n"
           + "  if n > 0 then\n" * depth + "  c = n * 2\n"
           + "  end\n" * depth + "  return c\nend")
    bare_interp.run(src)
    assert _hot_calls(bare_interp, "deep", K + 5) == 2.0
    assert not generated(bare_interp.global_value("deep"))
    assert bare_interp.run("return deep(0), deep(4)") == [0.0, 8.0]


def test_nesting_python_accepts_is_generated(bare_interp):
    src = ("function deep(n)\n  local c = 0\n"
           + "  if n > 0 then\n" * 60 + "  c = n * 2\n"
           + "  end\n" * 60 + "  return c\nend")
    bare_interp.run(src)
    assert _hot_calls(bare_interp, "deep", K + 5) == 2.0
    assert generated(bare_interp.global_value("deep"))


# ----------------------------------------------------------- NaN table keys

def test_host_and_script_reads_of_a_nan_key_agree(bare_interp):
    # a NaN key is never present, so every read of one misses
    t = Table()
    nan = float("nan")
    assert table_get(t, nan) is NIL
    first, last = both_tiers("local t = {}\nreturn t[0 / 0]")
    assert first == last == ("ok", [NIL], "")

    # and a miss goes to the index handler, from host code and scripts
    bare_interp.define_global("t", t)
    seen = []

    def handler(args):
        seen.append(args[1])
        return ["fallback"]

    set_fallback(t, "index", NativeFunction(handler))
    assert table_get(t, nan) == "fallback"
    assert math.isnan(seen[-1])
    src = "local hits = 0\nfor i = 1, n do\n  hits = hits + 1\n" \
          "  last = t[0 / 0]\nend\nreturn hits, last"
    bare_interp.define_global("n", float(2 * K))
    assert bare_interp.run(src) == [2.0 * K, "fallback"]
    assert len(seen) == 2 * K + 1


def test_table_get_still_rejects_nil_and_bad_keys():
    with pytest.raises(KeyIsNil):
        table_get(Table(), NIL)
    with pytest.raises(ScriptRuntimeError):
        table_get(Table(), True)


# ------------------------------------------- locals kept in Python locals

def test_hot_loops_store_their_locals_back_to_a_closure_tier_body(
        bare_interp):
    # f runs once, on closures; both its loops move to generated code
    # in the middle of their runs, and the statements after each loop
    # read what the loop assigned
    bare_interp.run("function f(n)\n"
                    "  local i = 0\n  local s = 0\n  local last = nil\n"
                    "  while i < n do\n    i = i + 1\n    s = s + i\n"
                    "    last = 'w' .. i\n  end\n"
                    "  local w = s .. ':' .. i .. ':' .. last\n"
                    "  local c = 0\n"
                    "  for j = 1, n do\n    c = c + j\n    last = j\n  end\n"
                    "  return w, c, last, i, s\nend")
    n = 3 * K
    total = n * (n + 1) / 2
    f = bare_interp.global_value("f")
    assert f.invoke([float(n)]) == [
        f"{total:g}:{n}:w{n}", total, float(n), float(n), total]
    assert not generated(f)


def test_uninitialised_local_reads_nil_on_the_generated_tier(bare_interp):
    # y's slot is reused by x, which has no initializer
    bare_interp.run("function f(a)\n  if a then local y = a end\n  local x\n"
                    "  if a == 1 then x = 'set' end\n  return x\nend")
    f = bare_interp.global_value("f")
    for _ in range(K + 1):
        assert bare_interp.run("return f(1)") == ["set"]
    assert generated(f)
    assert bare_interp.run("return f(2)") == [NIL]
    assert bare_interp.run("return f('y')") == [NIL]


def test_framed_body_shares_cells_before_and_after_the_switch(bare_interp):
    # mk makes closures over its parameter p and its local l: made on
    # closures for the first calls and by generated code after
    bare_interp.run("function mk(p)\n  local l = 0\n"
                    "  local inc = function() p = p + 1 l = l + 10 end\n"
                    "  local get = function() return p .. '/' .. l end\n"
                    "  inc()\n  local seen = get()\n"
                    "  return inc, get, seen .. '|' .. p .. '/' .. l\nend")
    mk = bare_interp.global_value("mk")
    made = []
    for k in range(K + 3):
        inc, get, seen = mk.invoke([float(k)])
        assert seen == f"{k + 1}/10|{k + 1}/10"
        made.append((k, inc, get))
    assert generated(mk)
    for k, inc, get in made:
        inc.invoke([])
        assert get.invoke([]) == [f"{k + 2}/20"]


def test_for_limit_and_step_are_read_once_on_both_tiers():
    first, last = both_tiers("local n = a\nlocal d = 1\nlocal c = 0\n"
                             "for i = 1, n, d do\n  n = 'x'\n  d = -1\n"
                             "  c = c + 1\nend\nreturn c, n, d", 4.0)
    assert first == last == ("ok", [4.0, "x", -1.0], "")


# ------------------------------------------------ arity at every caller

ARITY = ("function f(a, b) return tostring(a) .. ',' .. tostring(b) end\n"
         "for i = 1, n do f(i, i) end")


def test_hot_function_pads_and_cuts_at_a_generated_call_site(bare_interp):
    bare_interp.define_global("n", float(K))
    bare_interp.run(ARITY)
    assert generated(bare_interp.global_value("f"))
    bare_interp.run("function g(x)\n"
                    "  return f(x) .. '|' .. f(x, 2, 3) .. '|' .. f(x, 2)\nend")
    for _ in range(K + 1):
        got = bare_interp.run("return g(1)")
    assert generated(bare_interp.global_value("g"))
    assert got == ["1,nil|1,2|1,2"]
    # and in a loop that moved to generated code
    bare_interp.run("for i = 1, n + 5 do r1 = f(i) r2 = f(i, 7, 8) end")
    assert bare_interp.run("return r1, r2") == [f"{K + 5},nil", f"{K + 5},7"]


def test_hot_function_pads_and_cuts_at_a_closure_tier_call_site(
        bare_interp):
    bare_interp.define_global("n", float(K))
    bare_interp.run(ARITY)
    assert generated(bare_interp.global_value("f"))
    assert bare_interp.run("return f(1), f(1, 2, 3), f(), f(1, 2)") == [
        "1,nil", "1,2", "nil,nil", "1,2"]


def test_hot_function_pads_and_cuts_for_a_host_call(interp):
    # the host passes hello the table alone: t's takes it and x, u's
    # takes no parameter at all
    interp.run("t = {}\nfunction t:hello(x) return tostring(x) end\n"
               "u = {}\nu.hello = function() return 'none' end")
    w = interp.inbound.host_export(interp.global_value("t"), "demo.Speaker")
    v = interp.inbound.host_export(interp.global_value("u"), "demo.Speaker")
    call = interp.registry.call_method
    for _ in range(K + 1):
        assert call(w, "hello", []) == "nil"
        assert call(v, "hello", []) == "none"
    assert generated(table_get(interp.global_value("t"), "hello"))
    assert generated(table_get(interp.global_value("u"), "hello"))
    assert call(w, "hello", []) == "nil"
    assert call(v, "hello", []) == "none"


# ------------------------------------------ a chunk is a function body

def chunk_generated(chunk) -> bool:
    """Whether chunk's body runs as generated source."""
    (proto,) = [c.cell_contents for c in chunk.code().__closure__]
    return proto.body.__code__.co_filename.startswith("<")


def chunk_outcome(out, chunk, globals):
    out.seek(0)
    out.truncate()
    try:
        vals = eval_chunk(chunk, globals)
    except BridgeScriptError as e:
        return ("error", type(e).__name__, str(e), e.line, out.getvalue())
    return ("ok", [snapshot(v) for v in vals], out.getvalue())


def chunk_both_tiers(src: str, **globals):
    """The outcome of one parsed chunk, with these globals set, on its
    first run (closures) and on its (K+1)-th (generated)."""
    it, out = world()
    it.globals.update(globals)
    chunk = parse_source(src)
    first = chunk_outcome(out, chunk, it.globals)
    assert not chunk_generated(chunk)
    for _ in range(K - 1):
        chunk_outcome(out, chunk, it.globals)
    last = chunk_outcome(out, chunk, it.globals)
    assert chunk_generated(chunk)
    return first, last


@pytest.mark.parametrize("name", sorted(CASES))
def test_cases_agree_as_chunks(name):
    # line 1 binds the case's arguments as chunk locals, so the lines
    # match the function form's
    body, *args = CASES[name]
    head = " ".join(f"local {p} = {p.upper()}" for p in "abc")
    first, last = chunk_both_tiers(head + "\n" + body,
                                   **dict(zip("ABC", args)))
    assert first == last


def test_chunk_locals_captured_by_its_functions():
    first, last = chunk_both_tiers(
        "local n = 0\nlocal bump = function(k) n = n + k return n end\n"
        "function peek() return n end\nbump(2)\nbump(3)\n"
        "print(n, peek())\nreturn n, peek(), bump(1), 'end'")
    assert first == last == ("ok", [5.0, 5.0, 6.0, "end"], "5\t5\n")


def test_chunk_error_keeps_its_class_text_and_line():
    first, last = chunk_both_tiers("local t = {}\nprint('x')\n\n"
                                   "t.f(1)")
    assert first == last == (
        "error", "NotCallable",
        "NotCallable (line 4): attempt to call a nil value", 4, "x\n")


def test_hot_body_making_closures_keeps_no_frame(bare_interp):
    bare_interp.run("function mk(p)\n  local l = p\n  local fs = {}\n"
                    "  for i = 1, 2 do\n"
                    "    fs[i] = function() l = l + 1 p = p .. i "
                    "return p .. ':' .. l end\n  end\n"
                    "  return fs[1], fs[2]\nend")
    mk = bare_interp.global_value("mk")
    made = [(k, mk.invoke([float(k)])) for k in range(K + 3)]
    assert generated(mk)
    assert "fr" not in mk.proto.body.__code__.co_varnames
    # one run's closures share its i, which ended at 2, and its p and l
    for k, (f1, f2) in made:
        assert f1.invoke([]) == [f"{k}2:{k + 1}"]
        assert f2.invoke([]) == [f"{k}22:{k + 2}"]


LOOP_CELLS = ("local fs = {}\nlocal i = 0\n"
              "while i < n do\n  i = i + 1\n  local v = i\n"
              "  fs[i] = function() v = v + 1000 return v end\nend\n"
              "for j = 1, n do\n  local w = j\n"
              "  fs[n + j] = function() w = w + 1000 return w end\nend\n"
              "return fs")


def _own_cells(fs, n):
    # each closure bumps its own cell: twice for the first, once after
    get = lambda i: table_get(fs, float(i)).invoke([])[0]
    assert get(1) == 1001.0
    for i in range(1, n + 1):
        assert get(i) == i + 1000.0 + 1000.0 * (i == 1)
        assert get(n + i) == i + 1000.0
    assert get(1) == 3001.0


def test_hot_loop_cells_at_chunk_level(bare_interp):
    n = 2 * K + 1
    bare_interp.define_global("n", float(n))
    chunk = parse_source(LOOP_CELLS)
    _own_cells(eval_chunk(chunk, bare_interp.globals)[0], n)
    assert not chunk_generated(chunk)


def test_hot_loop_cells_in_a_closure_tier_function(bare_interp):
    n = 2 * K + 1
    bare_interp.define_global("n", float(n))
    bare_interp.run("function f()\n" + LOOP_CELLS + "\nend")
    f = bare_interp.global_value("f")
    _own_cells(f.invoke([])[0], n)
    assert not generated(f)


def test_for_unit_entered_again_checks_its_bounds(bare_interp):
    # f stays on closures; its first run moves the loop to a unit, which
    # every later run enters after the closure tier checked the bounds
    bare_interp.run("function f(a, b, c)\n  local fs = {}\n"
                    "  for i = a, b, c do\n"
                    "    fs[i] = function() return i end\n  end\n"
                    "  return fs\nend")
    f = bare_interp.global_value("f")
    first = f.invoke([1.0, float(2 * K), 1.0])[0]
    for args, text in (([1.0, "x", 1.0], "for bounds must be numbers"),
                       ([1.0, 2.0, 0.0], "for step is zero")):
        with pytest.raises(ScriptRuntimeError) as e:
            f.invoke(args)
        assert str(e.value) == f"ScriptRuntimeError (line 3): {text}"
        assert e.value.line == 3
    second = f.invoke([1.0, 3.0, 1.0])[0]
    third = f.invoke([5.0, 1.0, -1.0])[0]
    assert not generated(f)
    assert table_get(first, 1.0).invoke([]) == [float(2 * K)]
    assert table_get(second, 1.0).invoke([]) == [3.0]
    assert table_get(third, 5.0).invoke([]) == [1.0]


# ------------------------------------- host crossings written in place

def _tally_registry(validate=False) -> HostRegistry:
    """Tally: an integer field n, a float field x, a lone bump(float) ->
    float whose body fails on a negative and returns a string for 99,
    and a lone void touch(); its subclass SubTally; Other, an unrelated
    class with the same members; and the statics Util.ints(n) and
    Util.reals(n), arrays of integers and of floats."""
    reg = HostRegistry(validate_invokes=validate)

    def bump(self, v):
        if v < 0:
            raise ValueError("negative")
        if v == 99:
            return "ninety-nine"
        self.fields["x"] += v
        return self.fields["x"]

    def touch(self):
        self.fields["n"] += 1

    def array_of(tag):
        return lambda n: reg.array_new(tag, int(n))
    ctor = [MethodDescriptor("<init>", (), VOID, False, None)]
    members = {
        "fields": {"n": FieldSpec(INTEGER), "x": FieldSpec(FLOAT)},
        "methods": {
            "bump": [MethodDescriptor("bump", (FLOAT,), FLOAT, False, bump)],
            "touch": [MethodDescriptor("touch", (), VOID, False, touch)]}}
    reg.register_class(HostClassDescriptor(
        name="Tally", constructors=ctor, **members))
    reg.register_class(HostClassDescriptor(
        name="SubTally", base="Tally", constructors=ctor))
    reg.register_class(HostClassDescriptor(
        name="Other", constructors=ctor, **members))
    reg.register_class(HostClassDescriptor(name="Util", methods={
        name: [MethodDescriptor(name, (FLOAT,), ArrayTag(tag), True,
                                array_of(tag))]
        for name, tag in (("ints", INTEGER), ("reals", FLOAT))}))
    reg.freeze()
    return reg


# method calls that want no value, one and all, field reads and stores,
# and element reads and stores, each kind in a function of its own;
# plain() and plain_array() make script tables with the members a Tally
# and an array have
TALLY = """U = hostBindClass("Util")
function call(o, v)
  o:touch()
  o:bump(0)
  local z = o:touch()
  local b = o:bump(v)
  return b, z, o:bump(0)
end
function touch(o)
  return o:touch()
end
function field(o, v)
  local n = o.n
  o.n = v
  return n, o.n
end
function element(a, i, j, v)
  local e = a[i]
  a[j] = v
  return e, a[j]
end
function plain()
  local t = {n = 0, x = 0}
  function t:touch() self.n = self.n + 1 end
  function t:bump(v) self.x = self.x + v return self.x end
  return t
end
function plain_array()
  local a = {}
  a[1] = 0
  a[2] = 0
  return a
end"""

# what makes each function hot: the arguments of its K + 1 calls, and
# the bridge objects its generated body then guards on
WARM = {"call": ("hostNewInstance('Tally'), 1", 2),
        "touch": ("hostNewInstance('Tally')", 1),
        "field": ("hostNewInstance('Tally'), 2", 2),
        "element": ("U.ints(3), 1, 2, 5", 2)}

# each function called with arguments that its warm calls did not see,
# or that fail; the flag takes them from a second interpreter
GUARDED = [
    ("call", "hostNewInstance('Tally'), 1.5", False),
    ("call", "hostNewInstance('SubTally'), 1", False),
    ("call", "hostNewInstance('Other'), 1", False),
    ("call", "plain(), 1", False),
    ("call", "hostNewInstance('Tally'), 1", True),
    ("call", "hostNewInstance('Tally'), -1", False),
    ("call", "hostNewInstance('Tally'), 'one'", False),
    ("call", "hostNewInstance('Tally'), 99", False),
    ("touch", "hostNewInstance('Tally')", False),
    ("touch", "hostNewInstance('SubTally')", False),
    ("touch", "plain()", False),
    ("field", "hostNewInstance('Tally'), 7", False),
    ("field", "hostNewInstance('SubTally'), 2", False),
    ("field", "hostNewInstance('Other'), 2", False),
    ("field", "plain(), 2", False),
    ("field", "hostNewInstance('Tally'), 2", True),
    ("field", "hostNewInstance('Tally'), 'two'", False),
    ("field", "hostNewInstance('Tally'), 2.5", False),
    ("element", "U.ints(3), 3, 1, 4", False),
    ("element", "U.ints(3), 4, 1, 1", False),
    ("element", "U.ints(3), 0, 1, 1", False),
    ("element", "U.ints(3), 1.5, 1, 1", False),
    ("element", "U.ints(3), 1, 4, 1", False),
    ("element", "U.ints(3), 1, 2.5, 1", False),
    ("element", "U.ints(3), 1, 2, 'five'", False),
    ("element", "U.ints(3), 1, 2, 2.5", False),
    ("element", "U.reals(3), 1, 2, 2.5", False),
    ("element", "plain_array(), 1, 2, 5", False),
    ("element", "U.ints(3), 1, 2, 5", True),
]


def _tally_world(reg):
    it = Interpreter(reg, out=io.StringIO())
    it.run(TALLY)
    return it


def _counts(it):
    stats = it.outbound.stats
    return stats.dispatches, dict(stats.fallback_fires)


def _crossing_outcome(it, other, name, args: str, second: bool):
    """The outcome of calling it's function name with args, evaluated in
    other if second, else in it, and how the counts of it and of other
    moved."""
    values = (other if second else it).run("return " + args)
    before = [_counts(it), _counts(other)]
    try:
        out = ("ok", [snapshot(v) for v in
                      it.global_value(name).invoke(values)])
    except BridgeScriptError as e:
        out = ("error", type(e).__name__, str(e), e.line)
    moved = []
    for (d0, f0), (d1, f1) in zip(before, [_counts(it), _counts(other)]):
        moved.append((d1 - d0, {k: v - f0.get(k, 0) for k, v in f1.items()
                                if v != f0.get(k, 0)}))
    return out, moved


def _held(body) -> int:
    """How many bridge objects a generated body guards on, each held
    weakly in its globals."""
    return sum(v.__class__ is weakref.ref for v in body.__globals__.values())


@pytest.mark.parametrize("validate", [False, True])
def test_guard_failures_keep_the_closure_outcome(validate):
    reg = _tally_registry(validate)
    hot, hot_other, cold, cold_other = (_tally_world(reg) for _ in range(4))
    for name, (args, held) in WARM.items():
        f = hot.global_value(name)
        for _ in range(K + 1):
            f.invoke(hot.run("return " + args))
        assert generated(f) and _held(f.proto.body) == held, name
    ends = set()
    for name, args, second in GUARDED:
        want = _crossing_outcome(cold, cold_other, name, args, second)
        assert not generated(cold.global_value(name))
        got = _crossing_outcome(hot, hot_other, name, args, second)
        assert got == want, (name, args, second)
        ends.add(want[0][1] if want[0][0] == "error" else "ok")
    assert ends == {"ok", "HostException", "NoMatch", "TypeMismatch",
                    "IndexOutOfBounds", "NoSuchMember"}


def test_hot_chunk_keeps_no_dropped_bridge_alive():
    reg = _tally_registry()
    chunk = parse_source(
        "local o = hostNewInstance('Tally')\nlocal a = U.ints(2)\n"
        "o:touch()\nlocal b = o:bump(1.5)\no.n = o.n + 1\n"
        "a[2] = a[1] + 3\nreturn b, o.n, o.x, a[2]")
    first = _tally_world(reg)
    for _ in range(K + 1):
        assert eval_chunk(chunk, first.globals) == [1.5, 2.0, 1.5, 3.0]
    # three dispatchers, the fallbacks of Tally and of integer arrays
    (proto,) = [c.cell_contents for c in chunk.code().__closure__]
    assert chunk_generated(chunk) and _held(proto.body) == 7
    bridge = weakref.ref(first.outbound)
    del first
    gc.collect()
    assert bridge() is None
    second = _tally_world(reg)
    assert eval_chunk(chunk, second.globals) == [1.5, 2.0, 1.5, 3.0]
    assert second.outbound.stats.dispatches == 3  # U.ints, touch, bump


def test_integer_reads_in_place_convert_as_the_fallback_does():
    """An integer field or element read in place turns a host int into a
    script number itself.  An int beyond the float range is the
    fallback's TypeMismatch, with its line, and a value of another class,
    which a host body can leave in an integer slot, converts as the
    fallback converts it; the fire counts move as on closures."""
    reg = _tally_registry()
    o, a = reg.instantiate("Tally", []), reg.array_new(INTEGER, 2)
    hot, cold = _tally_world(reg), _tally_world(reg)
    proxies = {}
    for it in (hot, cold):
        it.run("function get(o, a)\n  local n = o.n\n  return n, a[1]\nend")
        proxies[it] = [it.converter.to_script(h) for h in (o, a)]
    f = hot.global_value("get")
    for _ in range(K + 1):
        assert f.invoke(proxies[hot]) == [0.0, 0.0]
    assert generated(f) and not generated(cold.global_value("get"))

    def outcome(it):
        before = dict(it.outbound.stats.fallback_fires)
        try:  # with each value's class: True == 1.0
            out = [(v.__class__, v) for v in
                   it.global_value("get").invoke(proxies[it])]
        except BridgeScriptError as e:
            out = (type(e).__name__, str(e), e.line)
        after = it.outbound.stats.fallback_fires
        return out, {k: n - before.get(k, 0) for k, n in after.items()}

    ends = []
    for n, e in ((7, -3), (10 ** 400, 1), (1, -10 ** 400), (True, False),
                 (2.5, 1), ("seven", 1), (None, 1)):
        o.fields["n"], a.elements[0] = n, e  # as a host body may
        want = outcome(cold)
        assert outcome(hot) == want, (n, e)
        ends.append(want[0])
    assert ends[:2] == [[(float, 7.0), (float, -3.0)], (
        "TypeMismatch", "TypeMismatch (line 2): host integer too large "
        "for a script number", 2)]
    assert ends[2][2] == 3 and ends[3] == [(bool, True), (bool, False)]
