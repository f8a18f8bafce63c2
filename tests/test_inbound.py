"""Inbound wrappers: script tables playing host interfaces and classes.

Pins the three behaviours the export path promises: interface wrappers
fail loudly on missing methods, class wrappers fall through to a backing
instance per method, and method lookup happens at every invocation so
late additions and swaps are visible.
"""

import gc
import itertools
import math
import weakref

import pytest

from bridgescript.errors import (
    ClassNotFound,
    HostException,
    NoDefaultConstructor,
    NoMatch,
    NoSuchMember,
    NotCallable,
    ProxyNotExportable,
    ReturnTypeMismatch,
    ScriptRuntimeError,
    TypeMismatch,
    UnimplementedMethod,
)
from bridgescript.convert import Converter
from bridgescript.inbound import InboundBridge, ScriptWrapper
from bridgescript.interp import Interpreter
from bridgescript.nodes import K
from bridgescript.objects import (
    NIL,
    NativeFunction,
    Table,
    set_fallback,
    table_get,
    table_set,
)
from bridgescript.outbound import OutboundBridge
from bridgescript.registry import (
    FLOAT,
    TEXT,
    VOID,
    ClassTag,
    HostClassDescriptor,
    HostRegistry,
    MethodDescriptor,
)


def _table_from(interp, source, name="t"):
    interp.run(source)
    return interp.global_value(name)


# ---------------------------------------------------------------- interfaces


def test_interface_wrapper_invokes_script_function(interp):
    t = _table_from(interp,
                    "t = {}\n"
                    "function t:actionPerformed(ev) hits = 1 end")
    w = interp.inbound.host_export(t, "demo.ActionListener")
    assert isinstance(w, ScriptWrapper)
    assert w.backing is None
    assert "__base" not in t.entries
    src = interp.registry.instantiate("demo.EventSource", [])
    ev = interp.registry.instantiate("demo.ActionEvent", [src])
    assert w.invoke_method("actionPerformed", [ev]) is None
    assert interp.global_value("hits") == 1.0


def test_interface_wrapper_missing_method(interp):
    t = _table_from(interp, "t = {}")
    w = interp.inbound.host_export(t, "demo.ActionListener")
    src = interp.registry.instantiate("demo.EventSource", [])
    ev = interp.registry.instantiate("demo.ActionEvent", [src])
    with pytest.raises(UnimplementedMethod, match="actionPerformed"):
        w.invoke_method("actionPerformed", [ev])


def test_wrapper_rejects_undeclared_method(interp):
    t = _table_from(interp, "t = {} function t:actionPerformed(ev) end")
    w = interp.inbound.host_export(t, "demo.ActionListener")
    with pytest.raises(NoSuchMember):
        w.invoke_method("somethingElse", [])


def test_host_args_arrive_as_proxies(interp):
    t = _table_from(interp,
                    "t = {}\n"
                    "function t:actionPerformed(ev)\n"
                    "  kind = type(ev)\n"
                    "  who = ev.source\n"
                    "end")
    w = interp.inbound.host_export(t, "demo.ActionListener")
    src = interp.registry.instantiate("demo.EventSource", [])
    ev = interp.registry.instantiate("demo.ActionEvent", [src])
    w.invoke_method("actionPerformed", [ev])
    assert interp.global_value("kind") == "hostobject"
    assert interp.global_value("who") is interp.converter.to_script(src)


def test_wrapper_passes_the_table_as_self(interp):
    t = _table_from(interp,
                    't = {tag = "me"}\n'
                    "function t:hello() return self.tag end")
    w = interp.inbound.host_export(t, "demo.Greeter")
    assert w.invoke_method("hello", []) == "me"


def test_wrapper_takes_first_result_only(interp):
    t = _table_from(interp,
                    "t = {}\n"
                    'function t:hello() return "a", "b" end')
    w = interp.inbound.host_export(t, "demo.Greeter")
    assert w.invoke_method("hello", []) == "a"


# ------------------------------------------------------------- class targets


def test_class_export_builds_backing_instance(interp):
    t = _table_from(interp, "t = {}")
    w = interp.inbound.host_export(t, "demo.Greeter")
    assert w.backing is not None
    assert w.backing.class_name == "demo.Greeter"
    base = t.entries["__base"]
    assert isinstance(base, Table)
    assert base.entries["__hostref"] is w.backing


def test_base_proxy_is_reachable_from_the_script(interp, out):
    interp.run("t = {}\n"
               'function t:hello() return "script" end')
    t = interp.global_value("t")
    interp.inbound.host_export(t, "demo.Greeter")
    interp.run("print(t.__base:hello())")
    assert out.getvalue() == "hello\n"


@pytest.mark.parametrize(
    "overrides",
    [frozenset(s) for n in range(4)
     for s in itertools.combinations(("hello", "bye", "wave"), n)])
def test_class_wrapper_override_subsets(interp, overrides):
    """Each method independently: script body if defined, else base."""
    lines = ["t = {}"]
    for name in sorted(overrides):
        lines.append(f'function t:{name}() return "s:{name}" end')
    t = _table_from(interp, "\n".join(lines))
    w = interp.inbound.host_export(t, "demo.Speaker")
    for name in ("hello", "bye", "wave"):
        want = f"s:{name}" if name in overrides else f"base:{name}"
        assert w.invoke_method(name, []) == want


def test_method_added_after_export_is_seen(interp):
    t = _table_from(interp, "t = {}")
    w = interp.inbound.host_export(t, "demo.Greeter")
    assert w.invoke_method("hello", []) == "hello"
    interp.run('function t:hello() return "late" end')
    assert w.invoke_method("hello", []) == "late"


def test_method_replaced_after_export_is_seen(interp):
    t = _table_from(interp, 't = {} function t:bye() return "one" end')
    w = interp.inbound.host_export(t, "demo.Greeter")
    assert w.invoke_method("bye", []) == "one"
    interp.run('function t:bye() return "two" end')
    assert w.invoke_method("bye", []) == "two"


def test_method_removed_after_export_falls_back(interp):
    t = _table_from(interp, 't = {} function t:bye() return "mine" end')
    w = interp.inbound.host_export(t, "demo.Greeter")
    assert w.invoke_method("bye", []) == "mine"
    interp.run("t.bye = nil")
    assert w.invoke_method("bye", []) == "goodbye"


def test_method_supplied_by_the_index_fallback_is_seen(interp):
    interp.run("t = {}\n"
               "one = function(t, k) return function(self) "
               "return k .. ':one' end end\n"
               "two = function(t, k) return function(self) "
               "return k .. ':two' end end\n"
               "none = function(t, k) return nil end")
    t = interp.global_value("t")
    w = interp.inbound.host_export(t, "demo.Greeter")
    set_fallback(t, "index", interp.global_value("one"))
    assert w.invoke_method("hello", []) == "hello:one"
    set_fallback(t, "index", interp.global_value("two"))
    assert w.invoke_method("hello", []) == "hello:two"
    # a class target falls through to the backing instance on nil
    set_fallback(t, "index", interp.global_value("none"))
    assert w.invoke_method("hello", []) == "hello"


def test_class_without_default_constructor():
    reg = HostRegistry()
    reg.register_class(HostClassDescriptor(
        name="NoDef",
        constructors=[
            MethodDescriptor("<init>", (FLOAT,), VOID, False, None)]))
    reg.freeze()
    outb = OutboundBridge(reg)
    inb = InboundBridge(reg)
    Converter(reg, outb, inb)
    with pytest.raises(NoDefaultConstructor):
        inb.host_export(Table(), "NoDef")


# ----------------------------------------------------------------- bad input


def test_export_rejects_non_tables(interp):
    with pytest.raises(TypeMismatch):
        interp.inbound.host_export(3.0, "demo.Greeter")
    with pytest.raises(TypeMismatch):
        interp.inbound.host_export("x", "demo.Greeter")


def test_export_rejects_proxies(interp):
    interp.run('p = javaNewInstance("Point")')
    with pytest.raises(ProxyNotExportable):
        interp.inbound.host_export(interp.global_value("p"), "demo.Greeter")


def test_export_rejects_unknown_types(interp):
    t = _table_from(interp, "t = {}")
    with pytest.raises(ClassNotFound):
        interp.inbound.host_export(t, "no.Such")


def test_non_function_member_is_not_callable(interp):
    t = _table_from(interp, "t = {hello = 5}")
    w = interp.inbound.host_export(t, "demo.Greeter")
    with pytest.raises(NotCallable, match="number"):
        w.invoke_method("hello", [])


def test_wrapper_errors_keep_their_order(interp):
    """Every call below also has arguments no overload accepts; the
    error raised is the first of NoSuchMember, UnimplementedMethod,
    NotCallable and NoMatch that applies, on a cold and a warm site."""
    t = _table_from(interp, "t = {nope = 5}")
    w = interp.inbound.host_export(t, "demo.ActionListener")
    steps = (("nope", "", NoSuchMember),
             ("actionPerformed", "", UnimplementedMethod),
             ("actionPerformed", "t.actionPerformed = 5", NotCallable),
             ("actionPerformed", "function t:actionPerformed(e) end",
              NoMatch))
    for name, source, error in steps:
        interp.run(source)
        for _ in range(2):
            with pytest.raises(error):
                w.invoke_method(name, ["bad"])


def test_return_value_must_match_declaration(interp):
    t = _table_from(interp, "t = {} function t:hello() return 3 end")
    w = interp.inbound.host_export(t, "demo.Greeter")
    with pytest.raises(ReturnTypeMismatch):
        w.invoke_method("hello", [])


def test_nil_result_fails_a_text_return(interp):
    t = _table_from(interp, "t = {} function t:hello() end")
    w = interp.inbound.host_export(t, "demo.Greeter")
    with pytest.raises(ReturnTypeMismatch):
        w.invoke_method("hello", [])


# -------------------------------------------------------------------- caching


def test_wrapper_cached_per_table_and_type(interp):
    t = _table_from(interp, "t = {}")
    a = interp.inbound.host_export(t, "demo.Greeter")
    b = interp.inbound.host_export(t, "demo.Greeter")
    c = interp.inbound.host_export(t, "demo.Speaker")
    assert a is b
    assert a is not c
    assert a.backing is not c.backing


def test_auto_wrap_shares_the_export_cache(interp):
    t = _table_from(interp, "t = {}")
    w = interp.inbound.host_export(t, "demo.Greeter")
    assert interp.converter.auto_wrap(t, "demo.Greeter") is w


def test_reexport_after_collection_keeps_the_backing(interp, out):
    t = _table_from(interp, "t = {}")
    w = interp.inbound.host_export(t, "demo.TextArea")
    base = t.entries["__base"]
    backing = w.backing
    interp.run('t.__base:setText("kept")')
    gone = weakref.ref(w)
    del w
    gc.collect()
    assert gone() is None
    again = interp.inbound.host_export(t, "demo.TextArea")
    assert t.entries["__base"] is base
    assert again.backing is backing
    assert backing.fields["text"] == "kept"
    interp.run("print(t.__base:getText())")
    assert out.getvalue() == "kept\n"


def test_distinct_tables_get_distinct_wrappers(interp):
    a = _table_from(interp, "a = {}", "a")
    b = _table_from(interp, "b = {}", "b")
    wa = interp.inbound.host_export(a, "demo.Greeter")
    wb = interp.inbound.host_export(b, "demo.Greeter")
    assert wa is not wb
    assert wa.backing is not wb.backing


# -------------------------------------------------------- end-to-end via host


def test_listener_fires_through_a_host_callback(interp, out):
    interp.run('src = javaNewInstance("demo.EventSource")\n'
               "hits = 0\n"
               "listener = {}\n"
               "function listener:actionPerformed(ev) hits = hits + 1 end\n"
               "src:addActionListener(listener)\n"
               "src:fireAction() src:fireAction()\n"
               "print(hits)")
    assert out.getvalue() == "2\n"


def test_host_export_builtin_returns_the_table(interp, out):
    interp.run("t = {}\n"
               'r = hostExport(t, "demo.Greeter")\n'
               "print(r == t, javaExport == hostExport)")
    assert out.getvalue() == "true\ttrue\n"


# ------------------------------------------------------ overloads on wrappers


def _echo_interp(out):
    """An interface whose one method has float and text overloads."""
    reg = HostRegistry()
    reg.register_class(HostClassDescriptor(
        name="Echo", kind="interface", methods={"g": [
            MethodDescriptor("g", (FLOAT,), FLOAT),
            MethodDescriptor("g", (TEXT,), TEXT)]}))
    reg.freeze()
    return Interpreter(reg, out=out)


def test_wrapper_return_tag_follows_the_chosen_overload(out):
    interp = _echo_interp(out)
    t = _table_from(interp, "t = {} function t:g(x) return x end")
    w = interp.inbound.host_export(t, "Echo")
    assert w.invoke_method("g", ["hi"]) == "hi"
    assert w.invoke_method("g", [2.0]) == 2.0
    assert w.invoke_method("g", [math.inf]) == math.inf


def test_wrapper_rejects_arguments_before_calling_the_script(interp):
    t = _table_from(interp,
                    "t = {}\n"
                    'function t:hello() called = true return "x" end')
    w = interp.inbound.host_export(t, "demo.Greeter")
    with pytest.raises(NoMatch):
        w.invoke_method("hello", [1.0])
    assert interp.global_value("called") is NIL
    with pytest.raises(NoMatch):
        interp.inbound.host_export(Table(), "demo.Greeter") \
            .invoke_method("bye", ["extra"])


@pytest.mark.parametrize("source", [
    't = {} function t:hello() return "x" end',
    "t = {}",  # hello falls through to the backing
], ids=["script_method", "fall_through"])
def test_wrapper_nullary_method_given_arguments_keeps_the_site_text(
        interp, source):
    w = interp.inbound.host_export(_table_from(interp, source),
                                   "demo.Speaker")
    for warm in (False, False, True):  # cold, refused again, then warm
        if warm:
            assert w.invoke_method("hello", []) in ("x", "base:hello")
        with pytest.raises(NoMatch) as e:
            interp.registry.call_method(w, "hello", [1.0])
        assert e.value.message == \
            "no overload of demo.Speaker.hello accepts these arguments"


# ------------------------------------------------------------ shared entries


def test_wrappers_of_one_type_share_one_entry(interp):
    interp.run('a = {} function a:hello() return "a" end\n'
               'b = {} function b:hello() return "b" end')
    wa = interp.inbound.host_export(interp.global_value("a"), "demo.Speaker")
    wb = interp.inbound.host_export(interp.global_value("b"), "demo.Speaker")
    call = interp.registry.call_method
    assert call(wa, "hello", []) == "a"
    entry = interp.inbound.entries["demo.Speaker", "hello"]
    assert call(wb, "hello", []) == "b"
    assert wa.invoke_method("hello", []) == "a"
    assert wb.invoke_method("hello", []) == "b"
    assert interp.inbound.entries["demo.Speaker", "hello"] is entry
    assert [k for k in interp.inbound.entries if k[0] == "demo.Speaker"] \
        == [("demo.Speaker", "hello")]


def test_host_objects_and_wrappers_of_one_type_keep_apart(interp):
    t = _table_from(interp, 't = {} function t:hello() return "script" end')
    w = interp.inbound.host_export(t, "demo.Speaker")
    obj = interp.registry.instantiate("demo.Speaker", [])
    call = interp.registry.call_method
    for _ in range(2):
        assert call(w, "hello", []) == "script"
        assert call(obj, "hello", []) == "base:hello"
    key = ("demo.Speaker", "hello")
    assert interp.inbound.entries[key] is not interp.registry.entries[key]


def test_undeclared_method_builds_no_entry(interp):
    w = interp.inbound.host_export(_table_from(interp, "t = {}"),
                                   "demo.Speaker")
    for _ in range(2):
        with pytest.raises(NoSuchMember):
            w.invoke_method("nope", [])
    assert ("demo.Speaker", "nope") not in interp.inbound.entries
    assert ("demo.Speaker", "nope") not in interp.registry.entries


def test_listener_swapped_every_64_calls_is_seen_at_once(interp):
    interp.run("hits = 0\n"
               'src = hostNewInstance("demo.EventSource")\n'
               "listener = {}\n"
               "function listener:actionPerformed(ev) hits = hits + 1 end\n"
               "src:addActionListener(listener)\n"
               "handlers = {a = listener.actionPerformed}\n"
               "function handlers.b(self, ev) hits = hits + 10 end")
    listener = interp.global_value("listener")
    handlers = interp.global_value("handlers")
    source = interp.global_value("src").entries["__hostref"]
    step = 1.0
    for e in range(1000):
        if e and e % 64 == 0:
            k = (e // 64) % 2
            table_set(listener, "actionPerformed",
                      table_get(handlers, "ab"[k]))
            step = (1.0, 10.0)[k]
        before = interp.global_value("hits")
        interp.registry.call_method(source, "fireAction", [])
        assert interp.global_value("hits") == before + step


def test_class_wrapper_errors_keep_their_order(interp):
    """As test_wrapper_errors_keep_their_order, on a class-backed target:
    a missing method falls through to the backing, whose own site then
    refuses the arguments."""
    t = _table_from(interp, "t = {}")
    w = interp.inbound.host_export(t, "demo.Speaker")
    steps = (("nope", "", NoSuchMember, "has no member"),
             ("hello", "", NoMatch, "no overload of demo.Speaker.hello"),
             ("hello", "t.hello = 5", NotCallable, "is a number"),
             ("hello", "function t:hello() end", NoMatch,
              "no overload of demo.Speaker.hello"))
    for name, source, error, text in steps:
        interp.run(source)
        for _ in range(2):
            with pytest.raises(error, match=text):
                w.invoke_method(name, ["bad"])
            with pytest.raises(error, match=text):
                interp.registry.call_method(w, name, ["bad"])


def test_runaway_recursion_through_the_bridge_is_a_stack_overflow(interp):
    """greet calls the wrapper's hello, which calls greet: from the host
    and from a script, Python's exhausted stack reads as a script's."""
    t = _table_from(interp,
                    'm = hostBindClass("demo.MathUtil")\n'
                    "t = {} function t:hello() return m.greet(self) end")
    w = interp.inbound.host_export(t, "demo.Greeter")
    with pytest.raises(ScriptRuntimeError) as e:
        w.invoke_method("hello", [])
    assert type(e.value) is ScriptRuntimeError
    assert e.value.message == "stack overflow"
    with pytest.raises(ScriptRuntimeError) as e:
        interp.run("\nm.greet(t)")
    assert type(e.value) is ScriptRuntimeError
    assert e.value.message == "stack overflow"
    assert e.value.line is not None
    # the interpreter still works afterwards
    interp.run("function t:hello() return 'ok' end")
    assert w.invoke_method("hello", []) == "ok"


# ------------------------------------------------- host calls of any arity

# A listener's actionPerformed(ev) and a speaker's nullary hello, as
# script functions of 0 to 3 parameters: each sees self and the host's
# arguments padded with nil or cut to its parameters.
LISTENERS = (("", 'seen = "none"'),
             ("self", "seen = self.tag"),
             ("self, ev", 'seen = self.tag .. "," .. tostring(ev.source == src)'),
             ("self, ev, x", 'seen = self.tag .. "," .. '
                             'tostring(ev.source == src) .. "," .. type(x)'))
SPEAKERS = (("", 'return "none"'),
            ("self", "return self.tag"),
            ("self, a", 'return self.tag .. "," .. type(a)'),
            ("self, a, b", 'return self.tag .. "," .. type(a) .. "," .. type(b)'))


def _generated(fn) -> bool:
    return fn.proto.body.__code__.co_filename.startswith("<")


@pytest.mark.parametrize("n", range(4))
def test_host_calls_reach_script_functions_of_any_arity(interp, n):
    interp.run('src = hostNewInstance("demo.EventSource")\n'
               'l = {tag = "t"}\n'
               'l.actionPerformed = function(%s) %s end\n'
               "src:addActionListener(l)\n"
               's = {tag = "t"}\n'
               "s.hello = function(%s) %s end" % (LISTENERS[n] + SPEAKERS[n]))
    source = interp.global_value("src").entries["__hostref"]
    w = interp.inbound.host_export(interp.global_value("s"), "demo.Speaker")
    call = interp.registry.call_method
    listened = ("none", "t", "t,true", "t,true,nil")[n]
    spoken = ("none", "t", "t,nil", "t,nil,nil")[n]
    listener = table_get(interp.global_value("l"), "actionPerformed")
    hello = table_get(interp.global_value("s"), "hello")
    for i in range(K + 2):  # the first call on closures, the last generated
        interp.define_global("seen", NIL)
        call(source, "fireAction", [])
        assert interp.global_value("seen") == listened
        assert call(w, "hello", []) == spoken
        assert w.invoke_method("hello", []) == spoken
        if i == 0:
            assert not _generated(listener) and not _generated(hello)
    assert _generated(listener) and _generated(hello)


def test_host_calls_reach_native_functions(interp):
    got = []
    interp.run('src = hostNewInstance("demo.EventSource")\nl = {}\ns = {}')
    listener, speaker = (interp.global_value(n) for n in "ls")
    listener.entries["actionPerformed"] = NativeFunction(
        lambda args: got.append(args) or [], "native")
    speaker.entries["hello"] = NativeFunction(
        lambda args: got.append(args) or ["native"], "native")
    interp.run("src:addActionListener(l)")
    source = interp.global_value("src").entries["__hostref"]
    w = interp.inbound.host_export(speaker, "demo.Speaker")
    interp.registry.call_method(source, "fireAction", [])
    assert interp.registry.call_method(w, "hello", []) == "native"
    (me, ev), (you,) = got
    assert me is listener and you is speaker
    assert ev.entries["__hostref"].class_name == "demo.ActionEvent"
    assert ev.entries["__hostref"].fields["source"] is source


# ------------------------------------------------- errors through lone entries

def _lone_world(out, validate: bool = False):
    """An interpreter over a registry whose host-side entries are all
    lone ones: lone.Host's f(float) and back(text) and lone.Thing's one
    constructor(float) fail on request, and the interface lone.Ear has
    a nullary ping, a say of one text slot, and a hear and a take of
    one lone.Host slot each."""
    host, thing = ClassTag("lone.Host"), ClassTag("lone.Thing")

    def fail(x):
        if x == -1.0:
            raise ValueError("refused")
        if x == -3.0:
            raise RecursionError("deep")

    def f(obj, x):
        fail(x)
        return "text" if x == -2.0 else x * 2

    def make(obj, x):
        fail(x)

    reg = HostRegistry(validate_invokes=validate)
    reg.register_class(HostClassDescriptor(
        name="lone.Host", constructors=[MethodDescriptor("<init>", (), VOID)],
        methods={"f": [MethodDescriptor("f", (FLOAT,), FLOAT, False, f)],
                 "back": [MethodDescriptor(
                     "back", (TEXT,), host, False,
                     lambda obj, s: it.inbound.host_export(
                         Table(), "lone.Ear"))]}))
    reg.register_class(HostClassDescriptor(
        name="lone.Thing", constructors=[MethodDescriptor(
            "<init>", (FLOAT,), VOID, False, make)]))
    reg.register_class(HostClassDescriptor(
        name="lone.Ear", kind="interface", methods={
            "ping": [MethodDescriptor("ping", (), TEXT)],
            "say": [MethodDescriptor("say", (TEXT,), TEXT)],
            "hear": [MethodDescriptor("hear", (host,), thing)],
            "take": [MethodDescriptor("take", (host,), VOID)]}))
    reg.freeze()
    it = Interpreter(reg, out=out)
    it.run('h = hostNewInstance("lone.Host") t = {}')
    return it


def _outcome(call):
    """(class, message) of what call raises, else ("ok", its result)."""
    try:
        r = call()
    except Exception as e:
        return type(e), e.message
    return "ok", r if r is None or type(r) in (float, str) else type(r)


@pytest.mark.parametrize("validate", [False, True])
def test_lone_host_entry_errors_keep_their_class_and_text(out, validate):
    """Through a lone method entry and a lone constructor entry, on a
    cold and a warm entry, each error has the class and text of the
    general entry's: a raising body, a stack overflow, a non-conforming
    return, and arguments that do not fit, which the general entry
    refuses."""
    cases = (
        ("f", [-1.0], HostException, "f: refused"),
        ("f", [-2.0], HostException, "native body of 'f' returned a value "
                                     "that does not conform to float"),
        ("f", [-3.0], ScriptRuntimeError, "stack overflow"),
        ("f", ["x"], NoMatch, "no overload of lone.Host.f accepts these "
                              "arguments"),
        ("f", [], NoMatch, "no overload of lone.Host.f accepts these "
                           "arguments"),
        ("f", [2], "ok", 4.0),
        ("back", ["w"], HostException,
         "native body of 'back' returned a value that does not conform "
         "to class:lone.Host"),
        ("<init>", [-1.0], HostException, "constructor of lone.Thing: "
                                          "refused"),
        ("<init>", [-3.0], ScriptRuntimeError, "stack overflow"),
        ("<init>", [True], NoMatch, "no constructor of 'lone.Thing' accepts "
                                    "these arguments"))
    it = _lone_world(out, validate)
    reg = it.registry
    obj = it.global_value("h").entries["__hostref"]
    for name, args, error, text in cases:
        for _ in range(2):
            got = _outcome(
                (lambda: reg.instantiate("lone.Thing", list(args)))
                if name == "<init>" else
                (lambda: reg.call_method(obj, name, list(args))))
            assert got == (error, text), name
    # a lone entry is an invoker's form; a general one is named entry
    assert {k: e.__name__ for k, e in reg.entries.items()} == dict.fromkeys(
        reg.entries, "invoke")


UNDEFINED = "the table exported as 'lone.Ear' does not define {!r}"
REFUSAL = "result of lone.Ear.{} does not convert to the declared " \
    "return type: {}"

# the calls each exported table gets: h is a lone.Host, other a lone.Thing
EAR_CALLS = (("nope", ()), ("ping", ()), ("ping", ("h",)), ("say", ("x",)),
             ("say", (1.0,)), ("say", (None,)), ("hear", ("h",)),
             ("hear", (None,)), ("hear", ()), ("hear", ("other",)),
             ("take", ("h",)), ("take", ("x",)))

# each table's source, and what the calls of EAR_CALLS its one method
# accepts give; the method refuses its other calls with NoMatch
LONE_EAR = (
    ("", {}),
    ("function t:ping() return nil .. 'x' end", {
        ("ping", ()): (ScriptRuntimeError,
                       "attempt to concatenate a nil value")}),
    ("function t:ping() local x = self:ping() return x end", {
        ("ping", ()): (ScriptRuntimeError, "stack overflow")}),
    ("function t:ping() return 5 end", {
        ("ping", ()): (ReturnTypeMismatch, REFUSAL.format(
            "ping", "expected a string, got number"))}),
    ("function t:ping() return nil end", {
        ("ping", ()): (ReturnTypeMismatch, REFUSAL.format(
            "ping", "expected a string, got nil"))}),
    ('function t:ping() return "pong" end', {("ping", ()): ("ok", "pong")}),
    ("function t:say(s) return s .. '!' end", {
        ("say", ("x",)): ("ok", "x!")}),
    ("function t:say(s) return self end", {
        ("say", ("x",)): (ReturnTypeMismatch, REFUSAL.format(
            "say", "expected a string, got table"))}),
    ("function t:hear(o) return o:f(-1) end", {
        ("hear", ("h",)): (HostException, "f: refused"),
        ("hear", (None,)): (ScriptRuntimeError,
                            "attempt to index a nil value")}),
    ("function t:hear(o) return self end", {
        ("hear", ("h",)): (ReturnTypeMismatch, REFUSAL.format(
            "hear", "'lone.Thing' cannot back a plain table")),
        ("hear", (None,)): (ReturnTypeMismatch, REFUSAL.format(
            "hear", "'lone.Thing' cannot back a plain table"))}),
    ("function t:hear(o) return o end", {
        ("hear", ("h",)): (ReturnTypeMismatch, REFUSAL.format(
            "hear", "'lone.Host' is not a 'lone.Thing'")),
        ("hear", (None,)): ("ok", None)}),
    ("function t:take(o) self.got = o end", {
        ("take", ("h",)): ("ok", None)}))


@pytest.mark.parametrize("source, accepted", LONE_EAR)
def test_lone_inbound_entry_errors_keep_their_class_and_text(
        out, source, accepted):
    """A wrapper's lone entries (ping of no slot, say of a text slot,
    hear and take of one class slot), cold and warm, keep the general
    entry's errors in its order: NoSuchMember, UnimplementedMethod,
    NotCallable, then NoMatch; a script's raise, a stack overflow and a
    result that does not convert (a number or a table for text, the
    wrapper's own table or a proxy of another class for lone.Thing,
    which cannot back a table) keep their classes and texts."""
    it = _lone_world(out)
    it.run(source)
    w = it.inbound.host_export(it.global_value("t"), "lone.Ear")
    values = {"h": it.global_value("h").entries["__hostref"],
              "other": it.registry.instantiate("lone.Thing", [1.0])}
    for name, args in EAR_CALLS:
        if name == "nope":
            want = NoSuchMember, "'lone.Ear' has no member 'nope'"
        elif f"t:{name}(" not in source:
            want = UnimplementedMethod, UNDEFINED.format(name)
        else:
            want = accepted.get((name, args), (
                NoMatch, f"no overload of lone.Ear.{name} accepts these "
                         f"arguments"))
        host_args = [values.get(a, a) if a.__class__ is str else a
                     for a in args]
        for _ in range(2):
            assert _outcome(lambda: it.registry.call_method(
                w, name, list(host_args))) == want, (name, args)
    if "take" in source:  # the host object reached the table, as a proxy
        got = table_get(it.global_value("t"), "got")
        assert got.entries["__hostref"] is values["h"]
    assert {k: e.__name__ for k, e in it.inbound.entries.items()} \
        == dict.fromkeys(it.inbound.entries, "entry")


def test_lone_inbound_entry_texts(out):
    """One table changed between calls through the lone entries: each
    call's error has the class and text of the general entry's."""
    it = _lone_world(out)
    w = it.inbound.host_export(it.global_value("t"), "lone.Ear")
    h = it.global_value("h").entries["__hostref"]
    call = it.registry.call_method
    refusal = ("result of lone.Ear.{} does not convert to the declared "
               "return type: {}")
    steps = (
        ("", "ping", [], UnimplementedMethod,
         "the table exported as 'lone.Ear' does not define 'ping'"),
        ("t.ping = 5", "ping", [h], NotCallable,
         "'ping' on the table exported as 'lone.Ear' is a number, "
         "not a function"),
        ("t.ping = 5", "ping", [], NotCallable,
         "'ping' on the table exported as 'lone.Ear' is a number, "
         "not a function"),
        ("function t:ping() return 5 end", "ping", [h], NoMatch,
         "no overload of lone.Ear.ping accepts these arguments"),
        ("", "ping", [], ReturnTypeMismatch,
         refusal.format("ping", "expected a string, got number")),
        ("function t:ping() local x = self:ping() return x end", "ping", [],
         ScriptRuntimeError, "stack overflow"),
        ("function t:hear(o) return o:f(-1) end", "hear", [h],
         HostException, "f: refused"),
        ("function t:hear(o) return self end", "hear", [h],
         ReturnTypeMismatch,
         refusal.format("hear", "'lone.Thing' cannot back a plain table")),
        ("function t:hear(o) return o end", "hear", [h], ReturnTypeMismatch,
         refusal.format("hear", "'lone.Host' is not a 'lone.Thing'")),
        ("", "hear", ["x"], NoMatch,
         "no overload of lone.Ear.hear accepts these arguments"))
    for source, name, args, error, text in steps:
        it.run(source)
        for _ in range(2):
            with pytest.raises(error) as e:
                call(w, name, args)
            assert type(e.value) is error and e.value.message == text


def test_class_fall_through_reaches_a_lone_entry(out):
    """A class wrapper's missing method runs the backing's lone entry,
    with its errors."""
    it = _lone_world(out)
    w = it.inbound.host_export(it.global_value("t"), "lone.Host")
    assert it.registry.call_method(w, "f", [3.0]) == 6.0
    assert w.invoke_method("f", [1]) == 2.0
    for args, error, text in (([-1.0], HostException, "f: refused"),
                              ([-3.0], ScriptRuntimeError, "stack overflow"),
                              (["x"], NoMatch, "no overload of lone.Host.f "
                                               "accepts these arguments")):
        with pytest.raises(error) as e:
            it.registry.call_method(w, "f", args)
        assert type(e.value) is error and e.value.message == text
    assert it.registry.entries["lone.Host", "f"].__name__ == "invoke"
