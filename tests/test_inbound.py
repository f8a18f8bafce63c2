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
    NoDefaultConstructor,
    NoMatch,
    NoSuchMember,
    NotCallable,
    ProxyNotExportable,
    ReturnTypeMismatch,
    TypeMismatch,
    UnimplementedMethod,
)
from bridgescript.convert import Converter
from bridgescript.inbound import InboundBridge, ScriptWrapper
from bridgescript.interp import Interpreter
from bridgescript.objects import NIL, Table
from bridgescript.outbound import OutboundBridge
from bridgescript.registry import (
    FLOAT,
    TEXT,
    VOID,
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


def test_class_without_default_constructor():
    reg = HostRegistry()
    reg.register_class(HostClassDescriptor(
        name="NoDef",
        constructors=[
            MethodDescriptor("<init>", (FLOAT,), VOID, False, None)]))
    reg.freeze()
    outb = OutboundBridge(reg)
    inb = InboundBridge(reg)
    conv = Converter(reg, outb.build_proxy, inb.auto_wrap)
    outb.converter = conv
    inb.converter = conv
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
    assert interp.inbound.auto_wrap(t, "demo.Greeter") is w


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
