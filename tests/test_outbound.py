"""Outbound proxies: lazy member lookup, dispatch caching, arrays.

The load-bearing claims live here: the index fallback fires exactly once
per (proxy, method) no matter how many calls follow, field reads are
never cached, array indices shift between the script's 1-based view
and the host's 0-based storage, and a warm call site chooses what the
overload rule would.
"""

import gc
import random
import weakref

import pytest

from bridgescript import Interpreter, registry
from bridgescript.convert import Converter
from bridgescript.errors import (
    Ambiguous,
    BridgeScriptError,
    ClassNotFound,
    HostException,
    IndexOutOfBounds,
    InterfaceNotInstantiable,
    NoMatch,
    NoSuchMember,
    ReceiverMismatch,
    ReservedField,
    TypeMismatch,
)
from bridgescript.inbound import InboundBridge
from bridgescript.nodes import K
from bridgescript.objects import (
    NIL,
    NativeFunction,
    Table,
    set_fallback,
    table_get,
)
from bridgescript.outbound import ELEMENTS, OutboundBridge
from bridgescript.registry import (
    BOOLEAN,
    FLOAT,
    INTEGER,
    SHAPES_PER_SITE,
    TEXT,
    VOID,
    ArrayTag,
    ClassTag,
    FieldSpec,
    HostClassDescriptor,
    HostObject,
    HostRegistry,
    InterfaceTag,
    MethodDescriptor,
)

from overload_trials import (
    build_world,
    converted_as_declared,
    run_lone_dispatch_trials,
    run_method_trials,
    run_site_trials,
    site_call,
    site_class,
    site_decide,
)


def _world(*descriptors):
    """Registry plus wired bridges, no interpreter in the way."""
    reg = HostRegistry()
    for d in descriptors:
        reg.register_class(d)
    reg.freeze()
    outb = OutboundBridge(reg)
    inb = InboundBridge(reg)
    conv = Converter(reg, outb, inb)
    return reg, outb, conv


# --------------------------------------------------------------- proxy shape


def test_proxy_table_starts_nearly_empty(interp):
    interp.run('p = javaNewInstance("Point")')
    p = interp.global_value("p")
    assert isinstance(p, Table)
    assert set(p.entries) == {"__hostref"}
    assert isinstance(p.entries["__hostref"], HostObject)
    assert p.index_handler is not None and p.newindex_handler is not None


def test_proxies_of_one_class_share_their_fallbacks(interp):
    interp.run('p = hostNewInstance("demo.Point") q = hostNewInstance('
               '"demo.Point") f = hostNewInstance("demo.Frame")\n'
               'a = hostBindClass("demo.MathUtil").intArray(2)\n'
               'b = hostBindClass("demo.MathUtil").intArray(3)\n'
               'M = hostBindClass("demo.MathUtil")\n'
               'B = hostBindClass("demo.BorderLayout")')
    p, q, f, a, b, m, border = map(interp.global_value, "pqfabMB")
    for one, other in ((p, q), (a, b)):  # one class, one element tag
        assert one.index_handler is other.index_handler
        assert one.newindex_handler is other.newindex_handler
    for one, other in ((p, f), (p, a), (m, border), (p, m)):
        assert one.index_handler is not other.index_handler
        assert one.newindex_handler is not other.newindex_handler


def test_subclass_proxy_reaches_inherited_members_through_its_own_fallbacks(
        interp):
    results = interp.run('c = hostNewInstance("demo.Component")\n'
               'b = hostNewInstance("demo.Button", "ok")\n'
               'c.id = "c1" b.id = "b1"\n'
               'return c.id, b.id, c:describe(), b:describe(), b:describe()')
    c, b = map(interp.global_value, "cb")
    assert results == [
        "c1", "b1", "component:c1", "component:b1", "component:b1"]
    assert b.index_handler is not c.index_handler
    assert b.newindex_handler is not c.newindex_handler
    stats = interp.outbound.stats
    assert stats.fallback_fires[("demo.Button", "id")] == 1
    assert stats.fallback_fires[("demo.Component", "id")] == 1
    assert stats.fires(b, "describe") == stats.fires(c, "describe") == 1
    assert stats.dispatches == 3
    # each class has its own dispatcher, and the subclass's runs the
    # inherited body itself, as the base's does: both are the one lone
    # form, made twice
    shared = b.entries["describe"], c.entries["describe"]
    assert shared[0] is not shared[1]
    assert shared[0].fn is not shared[1].fn
    assert shared[0].fn.__code__ is shared[1].fn.__code__
    assert {f.fn.__code__.co_filename for f in shared} == {"<lone>"}


def test_proxy_reports_hostobject_type(interp, out):
    interp.run('p = javaNewInstance("Point") print(type(p), type({}))')
    assert out.getvalue() == "hostobject\ttable\n"


def test_builtin_aliases_are_the_same_function(interp, out):
    interp.run("print(javaNewInstance == hostNewInstance,"
               " javaBindClass == hostBindClass)")
    assert out.getvalue() == "true\ttrue\n"


def test_distinct_instances_get_distinct_proxies(interp):
    interp.run('a = javaNewInstance("Point") b = javaNewInstance("Point")')
    a, b = interp.global_value("a"), interp.global_value("b")
    assert a is not b
    assert a.entries["__hostref"] is not b.entries["__hostref"]


# ----------------------------------------------------------- proxy identity


def _shared_box_world(out):
    """A registry whose static field Holder.it holds one Box, the Box,
    and two interpreters over the registry."""
    reg = HostRegistry()
    reg.register_class(HostClassDescriptor(
        name="Box", fields={"v": FieldSpec(FLOAT)}))
    reg.register_class(HostClassDescriptor(
        name="Holder", fields={"it": FieldSpec(ClassTag("Box"), static=True)}))
    reg.freeze()
    box = reg.instantiate("Box", [])
    reg.resolve_field("Holder", "it")[1]["it"] = box
    its = [Interpreter(reg, out=out) for _ in range(2)]
    for it in its:
        it.run('H = hostBindClass("Holder")\n'
               'function get() return H.it end\n'
               'function peek() return H.it.v end')
    return reg, box, its


def test_interpreters_over_one_registry_keep_their_own_proxies(out):
    _, box, (a, b) = _shared_box_world(out)
    pa, pb = a.run("return get()")[0], b.run("return get()")[0]
    assert pa is not pb
    assert pa.entries["__hostref"] is pb.entries["__hostref"] is box
    assert pa.index_handler is not pb.index_handler
    assert pa.newindex_handler is not pb.newindex_handler
    for _ in range(3):  # interleaved reads keep each one's proxy
        assert a.run("return get()")[0] is pa
        assert b.run("return get()")[0] is pb
    assert a.converter.to_script(box) is pa
    assert b.converter.to_script(box) is pb
    for _ in range(2):
        a.run("return peek()")
    for _ in range(5):
        b.run("return peek()")
    assert a.outbound.stats.fires(pa, "v") == 2
    assert b.outbound.stats.fires(pb, "v") == 5


def test_interpreters_that_come_and_go_leave_nothing_on_a_shared_value(out):
    reg, box, its = _shared_box_world(out)
    del its
    for _ in range(50):
        it = Interpreter(reg, out=out)
        it.run('local v = hostBindClass("Holder").it.v')
        del it
        gc.collect()
    assert len(box.proxies) <= 1


def test_replaced_fallback_keeps_the_proxy(interp):
    interp.run('p = hostNewInstance("Point")\n'
               'function seen(t, k) return "seen " .. k end')
    p = interp.global_value("p")
    set_fallback(p, "index", interp.global_value("seen"))
    ref = p.entries["__hostref"]
    assert interp.converter.to_script(ref) is p
    assert interp.run("return p.x") == ["seen x"]


def test_proxy_dropped_while_the_host_keeps_the_value(interp):
    interp.run('p = hostNewInstance("Point")\np:move(1, 2)')
    kept = [interp.global_value("p").entries["__hostref"]]
    dropped = weakref.ref(interp.global_value("p"))
    interp.run("p = nil")
    gc.collect()
    assert dropped() is None
    q = interp.converter.to_script(kept[0])
    assert q.entries["__hostref"] is kept[0]
    interp.define_global("q", q)
    assert interp.run("q:move(1, 1) return q.x, q.y") == [2.0, 3.0]
    assert interp.converter.to_script(kept[0]) is q


# --------------------------------------------------- dispatch closure caching


def test_method_fallback_fires_once_across_many_calls(interp):
    interp.run('c = javaNewInstance("bench.Counter")\n'
               "local i = 0 while i < 10000 do c:inc() i = i + 1 end")
    c = interp.global_value("c")
    stats = interp.outbound.stats
    assert stats.fires(c, "inc") == 1
    assert stats.dispatches == 10000
    assert c.entries["__hostref"].fields["count"] == 10000


def test_dispatcher_lands_in_the_table_after_first_call(interp):
    interp.run('c = javaNewInstance("bench.Counter")')
    c = interp.global_value("c")
    assert "inc" not in c.entries
    interp.run("c:inc()")
    cached = c.entries.get("inc")
    assert isinstance(cached, NativeFunction)
    interp.run("c:inc()")
    assert c.entries["inc"] is cached


def test_called_proxy_goes_without_the_cycle_collector(interp):
    # the cached dispatcher is shared by the class and refers to no
    # proxy, so nothing the proxy holds waits for the cycle collector
    interp.run('c = javaNewInstance("bench.Counter")\nc:inc()\nc:inc()')
    c = interp.global_value("c")
    assert isinstance(c.entries["inc"], NativeFunction)
    held = weakref.ref(c.entries["__hostref"])
    del c
    gc.disable()
    try:
        interp.run("c = nil")
        assert held() is None
    finally:
        gc.enable()


def test_proxies_of_a_class_share_one_dispatcher(interp, out):
    interp.run('a = javaNewInstance("bench.Counter")\n'
               'b = javaNewInstance("bench.Counter")\n'
               "a:inc() b:inc()\n"
               "print(a.inc == b.inc)")
    a, b = interp.global_value("a"), interp.global_value("b")
    assert a.entries["inc"] is b.entries["inc"]
    assert out.getvalue() == "true\n"


def test_dispatcher_is_stored_in_the_proxy_it_was_read_from(interp):
    interp.run('comp = javaNewInstance("demo.Component")\n'
               "f = comp.describe\n"
               'b = javaNewInstance("demo.Button")\n'
               "f(b)")
    comp, b = interp.global_value("comp"), interp.global_value("b")
    assert isinstance(comp.entries["describe"], NativeFunction)
    assert "describe" not in b.entries


def test_lookup_without_call_installs_nothing(interp):
    # nothing is installed beyond what a read stores: the first read, not
    # a call, stores the shared dispatcher, so the second read finds it in
    # the proxy and the fallback fires once
    interp.run('p = javaNewInstance("Point")\n'
               "f = p.move\n"
               "g = p.move")
    p = interp.global_value("p")
    assert interp.outbound.stats.fires(p, "move") == 1
    assert p.entries["move"] is interp.global_value("f") \
        is interp.global_value("g")
    interp.run("f(p, 2, 3)")
    assert p.entries["__hostref"].fields["x"] == 2.0


def test_method_identity_follows_call_history(interp):
    # identity no longer depends on call history: a method read gives the
    # class's one dispatcher before any call and after, as a plain table
    # gives the same function both times
    assert interp.run('p = hostNewInstance("Point")\n'
                      "a = p.move == p.move\n"
                      "p:move(1, 2)\n"
                      "return a, p.move == p.move") == [True, True]


def test_each_proxy_caches_independently(interp):
    interp.run('a = javaNewInstance("bench.Counter")\n'
               'b = javaNewInstance("bench.Counter")\n'
               "a:inc() a:inc()")
    stats = interp.outbound.stats
    a, b = interp.global_value("a"), interp.global_value("b")
    assert isinstance(a.entries["inc"], NativeFunction)
    assert "inc" not in b.entries
    interp.run("b:inc()")
    assert b.entries["inc"] is a.entries["inc"]
    # one fire per proxy, both counted under the class
    assert stats.fires(a, "inc") == 2
    assert stats.fires(b, "inc") == 2
    assert a.entries["__hostref"].fields["count"] == 2
    assert b.entries["__hostref"].fields["count"] == 1


def test_nonvoid_methods_cache_too(interp, out):
    interp.run('c = javaNewInstance("bench.Counter")\n'
               "c:inc() print(c:value(), c:value())")
    c = interp.global_value("c")
    assert out.getvalue() == "1\t1\n"
    assert interp.outbound.stats.fires(c, "value") == 1


def test_field_reads_are_never_cached(interp, out):
    interp.run('p = javaNewInstance("Point")\n'
               "print(p.x) p:move(4, 0) print(p.x) print(p.x)")
    p = interp.global_value("p")
    assert out.getvalue() == "0\n4\n4\n"
    # one fire per read: fields must track live host state
    assert interp.outbound.stats.fires(p, "x") == 3
    assert "x" not in p.entries


# -------------------------------------------------------------- field writes


def test_field_write_reaches_the_host(interp, out):
    interp.run('p = javaNewInstance("Point") p.x = 5 print(p.x)')
    p = interp.global_value("p")
    assert out.getvalue() == "5\n"
    assert p.entries["__hostref"].fields["x"] == 5.0
    assert "x" not in p.entries  # the write went through, not into the table


def test_integer_field_write_converts_and_checks(interp):
    interp.run('c = javaNewInstance("bench.Counter") c.count = 3')
    c = interp.global_value("c")
    stored = c.entries["__hostref"].fields["count"]
    assert stored == 3 and type(stored) is int
    with pytest.raises(TypeMismatch):
        interp.run("c.count = 2.5")


def test_field_write_rejects_wrong_type(interp):
    interp.run('p = javaNewInstance("Point")')
    with pytest.raises(TypeMismatch):
        interp.run('p.x = "nope"')
    with pytest.raises(TypeMismatch):
        interp.run("p.x = true")


def test_method_name_rejects_assignment(interp):
    interp.run('p = javaNewInstance("Point")')
    with pytest.raises(TypeMismatch, match="method"):
        interp.run("p.move = 7")


def test_hostref_slot_is_reserved(interp):
    interp.run('p = javaNewInstance("Point")')
    with pytest.raises(ReservedField):
        interp.run("p.__hostref = 1")


def test_unknown_member_write_fails(interp):
    interp.run('p = javaNewInstance("Point")')
    with pytest.raises(NoSuchMember):
        interp.run("p.z = 1")
    with pytest.raises(NoSuchMember):
        interp.run("p[1] = 2")


# ------------------------------------------------------------ receiver rules


def test_dot_call_without_receiver_is_rejected(interp):
    interp.run('p = javaNewInstance("Point")')
    with pytest.raises(ReceiverMismatch, match="':'"):
        interp.run("p.move(2, 3)")


def test_plain_table_receiver_is_rejected(interp):
    interp.run('p = javaNewInstance("Point") f = p.move')
    with pytest.raises(ReceiverMismatch):
        interp.run("f({}, 2, 3)")


def test_receiver_of_unrelated_class_is_rejected(interp):
    interp.run('comp = javaNewInstance("demo.Component")\n'
               "f = comp.describe\n"
               'p = javaNewInstance("Point")')
    with pytest.raises(ReceiverMismatch, match="called on"):
        interp.run("f(p)")


def test_static_method_called_with_colon_hints_at_dot(interp):
    interp.run('m = hostBindClass("demo.MathUtil")')
    with pytest.raises(NoMatch, match="call it with '.'"):
        interp.run("m:twice(3)")
    with pytest.raises(NoMatch, match="call it with '.'"):
        interp.run("m:intArray(3)")
    # a refusal without the class proxy first keeps the bare text
    with pytest.raises(NoMatch) as e:
        interp.run('m.twice("x")')
    assert "'.'" not in str(e.value)


def test_static_nullary_method_called_with_colon_hints_at_dot():
    desc = HostClassDescriptor(name="Clock", methods={"tick": [
        MethodDescriptor("tick", (), VOID, True, lambda: None)]})
    reg, outb, conv = _world(desc)
    clock = conv.class_proxy("Clock")
    tick = outb.proxy_index(clock, "tick")
    with pytest.raises(NoMatch, match="takes no arguments.*call it with '.'"):
        tick.fn([clock])
    tick.fn([])


def test_static_method_colon_hint_names_its_error_class_once():
    desc = HostClassDescriptor(name="Clock", methods={"tick": [
        MethodDescriptor("tick", (), VOID, True, lambda: None)]})
    reg, outb, conv = _world(desc)
    clock = conv.class_proxy("Clock")
    tick = outb.proxy_index(clock, "tick")
    with pytest.raises(NoMatch) as e:
        tick.fn([clock])
    assert e.value.message == ("Clock.tick takes no arguments; 'tick' is "
                               "static, call it with '.'")


def test_subclass_receiver_is_accepted(interp, out):
    # Button sits two levels below Component in the chain
    interp.run('comp = javaNewInstance("demo.Component")\n'
               "f = comp.describe\n"
               'b = javaNewInstance("demo.Button")\n'
               'b.id = "btn"\n'
               "print(f(b))")
    assert out.getvalue() == "component:btn\n"


# ------------------------------------------------------------ argument rules


def test_nullary_method_rejects_arguments(interp):
    interp.run('c = javaNewInstance("bench.Counter")')
    with pytest.raises(NoMatch, match="takes no arguments"):
        interp.run("c:inc(5)")


def test_single_candidate_arity_mismatch(interp):
    interp.run('p = javaNewInstance("Point")')
    with pytest.raises(NoMatch):
        interp.run("p:move(1)")
    with pytest.raises(NoMatch):
        interp.run('p:move("a", "b")')


def test_overloads_route_by_argument_type(interp, out):
    interp.run('m = javaBindClass("demo.MathUtil")\n'
               'print(m.describe(3), m.describe("hi"))')
    assert out.getvalue() == "number 3\ttext hi\n"


def test_no_overload_accepts_the_arguments(interp):
    interp.run('m = javaBindClass("demo.MathUtil")')
    with pytest.raises(NoMatch, match="no overload"):
        interp.run("m.describe(true)")


def test_ambiguous_call_reports_ambiguity():
    a = HostClassDescriptor(name="A", constructors=[
        MethodDescriptor("<init>", (), VOID, False, None)])
    b = HostClassDescriptor(name="B", constructors=[
        MethodDescriptor("<init>", (), VOID, False, None)])
    amb = HostClassDescriptor(
        name="Amb",
        constructors=[MethodDescriptor("<init>", (), VOID, False, None)],
        methods={"pick": [
            MethodDescriptor("pick", (ClassTag("A"),), VOID, False,
                             lambda self, x: None),
            MethodDescriptor("pick", (ClassTag("B"),), VOID, False,
                             lambda self, x: None),
        ]})
    reg, outb, conv = _world(a, b, amb)
    proxy = conv.to_script(reg.instantiate("Amb", []))
    dispatcher = outb.proxy_index(proxy, "pick")
    # nil converts to either class reference at the same score
    with pytest.raises(Ambiguous):
        dispatcher.fn([proxy, NIL])


def test_losing_overload_does_not_wrap_the_table():
    """Selection scores a plain table without wrapping it: only the
    chosen overload's arguments are converted."""
    ctor = MethodDescriptor("<init>", (), VOID, False, None)
    base = HostClassDescriptor(name="Base", constructors=[ctor])
    iface = HostClassDescriptor(name="I", kind="interface", methods={
        "run": [MethodDescriptor("run", (), VOID)]})
    got = []
    sink = HostClassDescriptor(name="Sink", methods={"take": [
        MethodDescriptor("take", (ClassTag("Base"), FLOAT), VOID, True,
                         lambda b, x: got.append(("Base", b))),
        MethodDescriptor("take", (InterfaceTag("I"), TEXT), VOID, True,
                         lambda i, s: got.append(("I", i)))]})
    reg, outb, conv = _world(base, iface, sink)
    t = Table()
    outb.proxy_index(conv.class_proxy("Sink"), "take").fn([t, "s"])
    assert [(k, w.target_type) for k, w in got] == [("I", "I")]
    assert got[0][1].script_object is t
    assert "__base" not in t.entries


# ------------------------------------------------------- host-body exceptions


def test_host_error_in_void_fast_path_is_wrapped():
    def explode(self):
        raise RuntimeError("boom")

    desc = HostClassDescriptor(
        name="Bomb",
        constructors=[MethodDescriptor("<init>", (), VOID, False, None)],
        methods={"go": [MethodDescriptor("go", (), VOID, False, explode)]})
    reg, outb, conv = _world(desc)
    proxy = conv.to_script(reg.instantiate("Bomb", []))
    dispatcher = outb.proxy_index(proxy, "go")
    with pytest.raises(HostException, match="boom"):
        dispatcher.fn([proxy])
    # the read installed the dispatcher, and a failed call leaves it:
    # the next call chooses and fails alike
    assert proxy.entries["go"] is dispatcher
    with pytest.raises(HostException, match="boom"):
        proxy.entries["go"].fn([proxy])


def test_nullary_body_error_reads_alike_from_script_and_host():
    def explode(self):
        raise RuntimeError("boom")

    desc = HostClassDescriptor(
        name="Bomb",
        methods={"go": [MethodDescriptor("go", (), VOID, False, explode)]})
    reg, outb, conv = _world(desc)
    obj = reg.instantiate("Bomb", [])
    proxy = conv.to_script(obj)
    with pytest.raises(HostException) as from_script:
        outb.proxy_index(proxy, "go").fn([proxy])
    with pytest.raises(HostException) as from_host:
        reg.call_method(obj, "go", [])
    assert str(from_script.value) == str(from_host.value) \
        == "HostException: go: boom"


def test_validate_invokes_catches_a_nullary_void_body_from_a_script(out):
    def corrupt(self):
        self.fields["n"] = "not an integer"

    reg = HostRegistry(validate_invokes=True)
    reg.register_class(HostClassDescriptor(
        name="Cell", fields={"n": FieldSpec(INTEGER)},
        methods={"spoil": [MethodDescriptor("spoil", (), VOID, False,
                                            corrupt)]}))
    reg.freeze()
    it = Interpreter(reg, out=out)
    it.run('c = hostNewInstance("Cell")')
    with pytest.raises(HostException, match="violates its tag"):
        it.run("c:spoil()")


def test_bridge_errors_from_host_bodies_pass_through():
    def indirect(self):
        raise NoSuchMember("Elsewhere", "thing")

    desc = HostClassDescriptor(
        name="Relay",
        constructors=[MethodDescriptor("<init>", (), VOID, False, None)],
        methods={"go": [MethodDescriptor("go", (), VOID, False, indirect)]})
    reg, outb, conv = _world(desc)
    proxy = conv.to_script(reg.instantiate("Relay", []))
    dispatcher = outb.proxy_index(proxy, "go")
    with pytest.raises(NoSuchMember, match="Elsewhere"):
        dispatcher.fn([proxy])


# -------------------------------------------------------------------- statics


def test_static_field_read_via_class_proxy(interp, out):
    interp.run('layout = javaBindClass("demo.BorderLayout")\n'
               "print(layout.CENTER, layout.SOUTH)")
    assert out.getvalue() == "Center\tSouth\n"


def test_static_field_write_via_class_proxy(interp, out):
    interp.run('layout = javaBindClass("demo.BorderLayout")\n'
               'layout.NORTH = "Top"\n'
               "print(layout.NORTH)")
    assert out.getvalue() == "Top\n"
    assert interp.registry.get_field("demo.BorderLayout", "NORTH") == "Top"


def test_static_method_caches_like_instance_methods(interp, out):
    interp.run('m = javaBindClass("demo.MathUtil")\n'
               "print(m.twice(3), m.twice(4))")
    m = interp.global_value("m")
    assert out.getvalue() == "6\t8\n"
    assert interp.outbound.stats.fires(m, "twice") == 1
    assert isinstance(m.entries["twice"], NativeFunction)


def test_class_proxy_hides_instance_members(interp):
    interp.run('cc = javaBindClass("bench.Counter")')
    with pytest.raises(NoSuchMember):
        interp.run("x = cc.count")
    with pytest.raises(NoSuchMember):
        interp.run("cc.inc()")


def test_instance_proxy_hides_static_members(interp):
    interp.run('m = javaNewInstance("demo.MathUtil")')
    with pytest.raises(NoSuchMember):
        interp.run("m.twice(3)")
    interp.run('m = hostNewInstance("demo.MathUtil")')
    for stmt in ("x = m.twice", "m.twice = 1"):
        with pytest.raises(NoSuchMember) as e:
            interp.run(f"local y = 1\n{stmt}")
        assert e.value.line == 2, stmt


def test_class_proxy_write_errors(interp):
    interp.run('layout = javaBindClass("demo.BorderLayout")\n'
               'm = javaBindClass("demo.MathUtil")')
    with pytest.raises(NoSuchMember):
        interp.run("layout.BOGUS = 1")
    with pytest.raises(TypeMismatch, match="static method"):
        interp.run("m.twice = 1")
    with pytest.raises(TypeMismatch):
        interp.run("layout.NORTH = 5")


def test_class_proxy_is_cached_per_name(interp):
    interp.run('a = javaBindClass("demo.MathUtil")\n'
               'b = javaBindClass("demo.MathUtil")')
    assert interp.global_value("a") is interp.global_value("b")


# --------------------------------------------------------------------- arrays


def test_array_script_flow(interp, out):
    interp.run('m = javaBindClass("demo.MathUtil")\n'
               "a = m.intArray(3)\n"
               "print(a[1], a[2], a[3], a.length)\n"
               "a[2] = 42\n"
               "print(a[2])")
    assert out.getvalue() == "0\t0\t0\t3\n42\n"


def test_array_write_lands_zero_based(interp):
    interp.run('m = javaBindClass("demo.MathUtil")\n'
               "a = m.intArray(4)\n"
               "a[1] = 10 a[4] = 40")
    arr = interp.global_value("a").entries["__hostref"]
    assert arr.elements == [10, 0, 0, 40]


def test_array_bounds_follow_script_view(interp):
    interp.run('m = javaBindClass("demo.MathUtil") a = m.intArray(3)')
    for bad in ("x = a[0]", "x = a[4]", "x = a[-1]", "a[0] = 1", "a[9] = 1"):
        with pytest.raises(IndexOutOfBounds):
            interp.run(bad)


@pytest.mark.parametrize("src, index", [
    ("\nx = a[4]", "4"), ("\na[0] = 1", "0"),
    ("\nx = a[1e300]", "1e+300"), ("\na[1e300] = 1", "1e+300")],
    ids=["read", "write", "huge-read", "huge-write"])
def test_array_bounds_errors_give_the_script_index(interp, src, index):
    interp.run('m = hostBindClass("demo.MathUtil") a = m.intArray(3)')
    with pytest.raises(IndexOutOfBounds) as e:
        interp.run(src)
    assert str(e.value) == ("IndexOutOfBounds (line 2): "
                            f"index {index} out of bounds for length 3")
    assert e.value.line == 2


def test_number_member_keys_print_as_scripts_print_them(interp):
    interp.run('m = hostBindClass("demo.MathUtil") a = m.intArray(3)')
    for src, where, key in (("return m[1]", "demo.MathUtil", "1"),
                            ("return a[1.5]", "array", "1.5"),
                            ("a[2.5] = 1", "array", "2.5")):
        with pytest.raises(NoSuchMember) as e:
            interp.run(src)
        assert str(e.value) == \
            f"NoSuchMember (line 1): '{where}' has no member '{key}'"


def test_array_fractional_and_unknown_keys(interp):
    interp.run('m = javaBindClass("demo.MathUtil") a = m.intArray(3)')
    with pytest.raises(NoSuchMember):
        interp.run("x = a[1.5]")
    with pytest.raises(NoSuchMember):
        interp.run("x = a.size")
    with pytest.raises(NoSuchMember):
        interp.run("a.size = 1")


def test_array_length_is_read_only(interp):
    interp.run('m = javaBindClass("demo.MathUtil") a = m.intArray(3)')
    with pytest.raises(TypeMismatch, match="read-only"):
        interp.run("a.length = 9")


def test_array_elements_are_typed(interp):
    interp.run('m = javaBindClass("demo.MathUtil") a = m.intArray(3)')
    with pytest.raises(TypeMismatch):
        interp.run('a[1] = "x"')
    with pytest.raises(TypeMismatch):
        interp.run("a[1] = 2.5")


def test_array_index_translation_randomized(interp):
    """Criterion: 1-based script indices map onto 0-based host storage."""
    bridge = interp.outbound
    conv = interp.converter
    reg = interp.registry
    rng = random.Random(20260814)
    checked = 0
    for _ in range(120):
        length = rng.randint(1, 40)
        arr = reg.array_new(INTEGER, length)
        proxy = conv.to_script(arr)
        for _ in range(10):
            i = rng.randint(1, length)
            v = rng.randint(-1000, 1000)
            bridge.proxy_newindex(proxy, float(i), float(v))
            assert arr.elements[i - 1] == v
            assert bridge.proxy_index(proxy, float(i)) == float(v)
            checked += 1
        assert bridge.proxy_index(proxy, "length") == float(length)
    assert checked >= 1000


def test_float_array_round_trip(interp):
    reg = interp.registry
    conv = interp.converter
    bridge = interp.outbound
    arr = reg.array_new(FLOAT, 2)
    proxy = conv.to_script(arr)
    bridge.proxy_newindex(proxy, 1.0, 2.5)
    assert arr.elements == [2.5, 0.0]
    assert bridge.proxy_index(proxy, 1.0) == 2.5


# --------------------------------------------------------------- construction


def test_interfaces_cannot_be_instantiated(interp):
    with pytest.raises(InterfaceNotInstantiable):
        interp.run('x = javaNewInstance("demo.ActionListener")')


def test_unknown_class_name(interp):
    with pytest.raises(ClassNotFound):
        interp.run('x = javaNewInstance("no.Such")')
    with pytest.raises(ClassNotFound):
        interp.run('x = javaBindClass("no.Such")')


def test_constructor_overloads_select_by_arity(interp, out):
    interp.run('a = javaNewInstance("demo.Point")\n'
               'b = javaNewInstance("demo.Point", 7, 8)\n'
               "print(a.x, b.x, b.y)")
    assert out.getvalue() == "0\t7\t8\n"


def test_constructor_no_match(interp):
    with pytest.raises(NoMatch, match="constructor"):
        interp.run('x = javaNewInstance("demo.Point", 1)')
    with pytest.raises(NoMatch):
        interp.run('x = javaNewInstance("demo.Point", "a", "b")')


def test_constructor_ambiguity():
    a = HostClassDescriptor(name="A", constructors=[
        MethodDescriptor("<init>", (), VOID, False, None)])
    b = HostClassDescriptor(name="B", constructors=[
        MethodDescriptor("<init>", (), VOID, False, None)])
    amb = HostClassDescriptor(name="Amb", constructors=[
        MethodDescriptor("<init>", (ClassTag("A"),), VOID, False, None),
        MethodDescriptor("<init>", (ClassTag("B"),), VOID, False, None)])
    reg, outb, conv = _world(a, b, amb)
    with pytest.raises(Ambiguous):
        outb.host_new_instance("Amb", [NIL])


def test_constructed_object_starts_with_field_defaults(interp):
    interp.run('f = javaNewInstance("demo.Frame")')
    obj = interp.global_value("f").entries["__hostref"]
    assert obj.fields["title"] == ""
    assert obj.fields["packed"] is False
    assert obj.fields["north"] is None


# ------------------------------------------------------------- fire counts


def test_dropped_proxies_fold_into_one_fire_count(interp):
    # fires count per (class, member), so every proxy's read lands in
    # one entry whether the proxy lives or not
    interp.run('local i = 0\n'
               'while i < 2000 do\n'
               '  local p = hostNewInstance("Point")\n'
               '  local x = p.x\n'
               '  i = i + 1\n'
               'end')
    gc.collect()
    assert interp.outbound.stats.fallback_fires == {("Point", "x"): 2000}


def test_live_proxies_keep_their_fire_counts(interp):
    interp.run('p = hostNewInstance("Point")\n'
               'local i = 0\n'
               'while i < 50 do\n'
               '  local q = hostNewInstance("Point")\n'
               '  local x = q.x + p.x\n'
               '  i = i + 1\n'
               'end')
    gc.collect()
    p = interp.global_value("p")
    stats = interp.outbound.stats
    assert stats.fires(p, "x") == 100
    assert stats.fallback_fires == {("Point", "x"): 100}


def test_array_element_reads_count_under_one_key(interp):
    interp.run('a = hostBindClass("demo.MathUtil").intArray(10000)\n'
               'local i = 1\n'
               'local s = 0\n'
               'while i <= 10000 do s = s + a[i] i = i + 1 end\n'
               'n = a.length')
    a = interp.global_value("a")
    stats = interp.outbound.stats
    assert stats.fires(a, ELEMENTS) == 10000
    assert stats.fires(a, "length") == 1
    tag = a.entries["__hostref"].elem_tag
    counts = {("demo.MathUtil", "intArray"): 1, (tag, ELEMENTS): 10000,
              (tag, "length"): 1}
    assert stats.fallback_fires == counts
    del a
    interp.run("a = nil")
    gc.collect()
    assert stats.fallback_fires == counts


def test_the_bridge_holds_nothing_per_dropped_proxy(interp):
    interp.run('local i = 0\n'
               'while i < 2000 do\n'
               '  local p = hostNewInstance("Point")\n'
               '  local x = p.x\n'
               '  p:move(1, 1)\n'
               '  i = i + 1\n'
               'end')
    gc.collect()
    assert interp.outbound.stats.fallback_fires == {
        ("Point", "x"): 2000, ("Point", "move"): 2000}
    # every proxy, and with it every Point, was collected
    assert not [o for o in gc.get_objects() if o.__class__ is Table
                and o.entries.get("__hostref").__class__ is HostObject
                and o.entries["__hostref"].class_name == "Point"]
    assert not [o for o in gc.get_objects() if o.__class__ is HostObject
                and o.class_name == "Point"]


def test_reads_of_missing_keys_add_no_fire_counts(interp):
    interp.run('p = hostNewInstance("Point")\nlocal x = p.x')
    fires = interp.outbound.stats.fallback_fires
    before = dict(fires)
    for i in range(1000):
        key = f"p.k{i}" if i % 2 else f"p[{i}]"
        with pytest.raises(NoSuchMember):
            interp.run(f"return {key}")
    assert fires == before


# ---------------------------------------------------------- host integers


def test_host_integer_beyond_script_numbers_is_a_script_error(out):
    reg = HostRegistry()
    reg.register_class(HostClassDescriptor(
        name="Big",
        fields={"n": FieldSpec(INTEGER), "ns": FieldSpec(ArrayTag(INTEGER))},
        methods={
            "big": [MethodDescriptor("big", (), INTEGER, False,
                                     lambda self: 10**400)],
            "bigf": [MethodDescriptor("bigf", (), FLOAT, False,
                                      lambda self: 10**400)]}))
    reg.freeze()
    it = Interpreter(reg, out=out)
    it.run('b = hostNewInstance("Big")')
    obj = it.global_value("b").entries["__hostref"]
    obj.fields["n"] = 10**400
    obj.fields["ns"] = reg.array_new(INTEGER, 1)
    obj.fields["ns"].elements[0] = 10**400
    for line, source in ((2, "x = b:big()"), (3, "x = b.n"),
                         (4, "x = b.ns[1]"), (5, "x = b:bigf()")):
        with pytest.raises(BridgeScriptError) as e:
            it.run("\n" * (line - 1) + source)
        assert e.value.line == line
    with pytest.raises(TypeMismatch, match="too large"):
        it.run("x = b:big()")
    with pytest.raises(HostException, match="does not conform"):
        it.run("x = b:bigf()")


def test_reads_convert_by_tag(out):
    # a field or element read of any tag gives what to_script makes of
    # the value: a float, string or boolean passes, an int becomes a
    # float, and one too large for a script number is refused
    reg = HostRegistry()
    tags = {"f": FLOAT, "t": TEXT, "b": BOOLEAN, "i": INTEGER,
            "c": ClassTag("Tagged")}
    reg.register_class(HostClassDescriptor(name="Tagged", fields={
        "a": FieldSpec(ArrayTag(INTEGER)),
        **{k: FieldSpec(tag) for k, tag in tags.items()},
        **{f"s{k}": FieldSpec(tag, static=True) for k, tag in tags.items()}}))
    reg.freeze()
    it = Interpreter(reg, out=out)
    it.run('o = hostNewInstance("Tagged")\nS = hostBindClass("Tagged")\n'
           "function get(k) return o[k], S['s' .. k] end\n"
           "function at(i) return o.a[i] end")
    obj = it.global_value("o").entries["__hostref"]
    statics = reg.resolve_field("Tagged", "sf")[1]
    arr = obj.fields["a"] = reg.array_new(INTEGER, 1)
    get, at = it.global_value("get"), it.global_value("at")
    proxy = it.global_value("o")
    for host, script in ((2.5, 2.5), (7, 7.0), ("s", "s"), (True, True),
                         (None, NIL), (obj, proxy)):
        for k in tags:
            obj.fields[k] = statics[f"s{k}"] = host
            for _ in range(2):
                got = get.invoke([k])
                assert got == [script, script] and all(
                    type(v) is type(script) for v in got), (k, host)
        arr.elements[0] = host
        assert at.invoke([1.0]) == [script]
        assert type(at.invoke([1.0])[0]) is type(script)
    for k in ("i", "f"):
        obj.fields[k] = 10**400
        with pytest.raises(TypeMismatch) as e:
            get.invoke([k])
        assert e.value.message == "host integer too large for a script number"
    arr.elements[0] = 10**400
    with pytest.raises(TypeMismatch, match="too large") as e:
        at.invoke([1.0])
    assert e.value.line == 4


@pytest.mark.parametrize("read", ["p.x", "S.s", "p.ns[1]"])
def test_a_value_that_is_no_host_value_is_a_script_error(out, read):
    # host code broke a field's or an element's tag; validate_invokes is
    # off, so the script's read is where it shows
    reg = HostRegistry()
    reg.register_class(HostClassDescriptor(
        name="Spoilt",
        fields={"x": FieldSpec(FLOAT), "s": FieldSpec(FLOAT, static=True),
                "ns": FieldSpec(ArrayTag(INTEGER))},
        methods={"spoil": [MethodDescriptor(
            "spoil", (), VOID, False,
            lambda self: self.fields.update(x=[1]))]}))
    reg.freeze()
    it = Interpreter(reg, out=out)
    it.run('p = hostNewInstance("Spoilt")\nS = hostBindClass("Spoilt")\n'
           f'function f()\n\n  return {read}\nend')
    obj = it.global_value("p").entries["__hostref"]
    obj.fields["ns"] = reg.array_new(INTEGER, 1)
    statics = reg.resolve_field("Spoilt", "s")[1]
    f = it.global_value("f")
    for hot in (False, True):
        if hot:
            for _ in range(K + 1):
                f.invoke([])
            assert f.proto.body.__code__.co_filename.startswith("<")
        it.run("p:spoil()")
        statics["s"] = [1]
        stray = obj.fields["ns"].elements[0] = object()
        with pytest.raises(TypeMismatch) as e:
            f.invoke([])
        bad = stray if read == "p.ns[1]" else [1]
        assert e.value.message == f"not a host value: {bad!r}"
        assert e.value.line == 5
        obj.fields["x"] = statics["s"] = 0.0
        obj.fields["ns"].elements[0] = 0


# -------------------------------------------------------------- call sites


def test_call_sites_agree_with_referee():
    agree, total, example = run_site_trials(3_000)
    assert (agree, total) == (3_000, 3_000), example


def test_instance_dispatchers_agree_with_referee():
    agree, total, example = run_method_trials(3_000)
    assert (agree, total) == (3_000, 3_000), example


@pytest.mark.parametrize("validate", [False, True])
def test_lone_script_crossings_agree_with_referee(validate):
    agree, total, example, lone, built, in_place = run_lone_dispatch_trials(
        3_000, validate_invokes=validate)
    assert (agree, total) == (3_000, 3_000), example
    assert lone == built == 21  # 7 methods on 2 classes, 7 constructors
    # per class, a hot function per arity of a chain's lone crossings:
    # one each for the five methods of one overload, two for one chain
    # and one for the other
    assert in_place == 16


# ------------------------------------------------------- dispatcher edges

_SETUP = """m = hostBindClass("demo.MathUtil")
p = hostNewInstance("Point")
c = hostNewInstance("bench.Counter")
b = hostNewInstance("demo.Button")
comp = hostNewInstance("demo.Component")
"""


def _outcome(f):
    try:
        return f.invoke([])
    except BridgeScriptError as e:
        return type(e), e.message, e.line


def _on_both_tiers(interp, cases):
    """Each (body, outcome) of cases as the body of a script function,
    its second line, called on closures and then, after K more calls,
    as generated code: outcome is the values returned or (error class,
    message, line)."""
    interp.run(_SETUP)
    for body, want in cases:
        interp.run(f"function f()\n{body}\nend")
        f = interp.global_value("f")
        assert _outcome(f) == want, body
        for _ in range(K):
            _outcome(f)
        assert f.proto.body.__code__.co_filename.startswith("<")
        assert _outcome(f) == want, body


def test_refused_overload_call_is_not_remembered(interp, monkeypatch):
    interp.run(_SETUP)
    resolved = []
    real = registry.resolve_overload
    monkeypatch.setattr(registry, "resolve_overload",
                        lambda *a: resolved.append(a) or real(*a))
    # intArray's integer slot is no lone slot, so that both calls reach
    # its call site
    refused = (NoMatch, "no overload of demo.MathUtil.intArray accepts "
               "these arguments", 2)
    for body, want, resolutions in (
            ("m.intArray(true)", refused, 1),
            ("return m.intArray(2).length", [2.0], 2),
            ("m.intArray(true)", refused, 3),  # resolved again
            ("return m.intArray(2).length", [2.0], 3)):  # remembered
        interp.run(f"function f()\n{body}\nend")
        assert _outcome(interp.global_value("f")) == want
        assert len(resolved) == resolutions


def test_dispatcher_refusals_keep_their_texts(interp):
    _on_both_tiers(interp, [
        ("p:move(1)", (NoMatch, "no overload of Point.move accepts these "
                       "arguments", 2)),
        ('p:move(1, "2")', (NoMatch, "no overload of Point.move accepts "
                            "these arguments", 2)),
        ("c:inc(1)", (NoMatch, "bench.Counter.inc takes no arguments", 2)),
        ("m:twice(2)", (NoMatch, "no overload of "
                        "demo.MathUtil.twice accepts these arguments; "
                        "'twice' is static, call it with '.'", 2)),
        ("m:describe(2)", (NoMatch, "no overload of "
                           "demo.MathUtil.describe accepts these "
                           "arguments; 'describe' is static, call it with "
                           "'.'", 2)),
        ("m.twice(1, 2)", (NoMatch, "no overload of demo.MathUtil.twice "
                           "accepts these arguments", 2)),
        ("c.inc()", (ReceiverMismatch, "method 'inc' needs a host "
                     "receiver; call it with ':'", 2)),
        ("p.move(1, 2)", (ReceiverMismatch, "method 'move' needs a host "
                          "receiver; call it with ':'", 2)),
        ("local f = c.inc return f(b)", (
            ReceiverMismatch, "method 'inc' of 'bench.Counter' called on "
            "a 'demo.Button'", 2)),
    ])


def test_base_class_methods_work_on_subclass_proxies(interp):
    _on_both_tiers(interp, [
        # Button's own member, and the base's dispatcher on a Button
        ('b.id = "btn" return b:describe()', ["component:btn"]),
        ("local f = comp.describe return f(b)", ["component:btn"]),
        ("local f = comp.describe return f(comp)", ["component:"]),
    ])


def test_dispatchers_are_shared_values(interp):
    _on_both_tiers(interp, [
        ("local a = hostNewInstance('bench.Counter')\n"
         "return p.move == p.move, a.inc == c.inc, m.twice == m.twice",
         [True, True, True]),
    ])


def test_warm_site_wraps_each_plain_table():
    got = []
    sink = HostClassDescriptor(name="Sink", methods={"take": [
        MethodDescriptor("take", (ClassTag("ora.Base"),), VOID, True,
                         got.append)]})
    reg, conv = build_world(sink)
    take = table_get(conv.class_proxy("Sink"), "take")
    t1, t2 = Table(), Table()
    for t in (t1, t2, t1):
        take.fn([t])
    w1, w2, w3 = got
    assert w1.script_object is t1 and w2.script_object is t2
    assert w3 is w1
    assert w1.backing is not w2.backing
    assert t1.entries["__base"].entries["__hostref"] is w1.backing
    assert t2.entries["__base"].entries["__hostref"] is w2.backing


def test_site_beyond_its_cache_still_chooses():
    base, derived, leaf = (ClassTag(n) for n in
                           ("ora.Base", "ora.Derived", "ora.Leaf"))
    seen = []
    reg, conv = build_world(site_class("Many", {"g": [
        (FLOAT,), (base,), (base, INTEGER), (derived, INTEGER),
        (leaf, FLOAT), (TEXT, INTEGER)]}, seen))
    proxies = [conv.to_script(reg.instantiate(n, []))
               for n in ("ora.Base", "ora.Derived", "ora.Leaf")]
    objects = [NIL, *proxies, Table(), "s"]
    calls = [[n] for n in (3.0, 2.5)] + [[o] for o in objects] \
        + [[o, n] for o in objects for n in (3.0, 2.5)]
    g = table_get(conv.class_proxy("Many"), "g")
    verdicts = [site_decide(reg, "Many", "g", args) for args in calls]
    chosen = {label for status, label in verdicts if status == "selected"}
    assert sum(status == "selected" for status, _ in verdicts) \
        > SHAPES_PER_SITE
    assert len(chosen) == 6  # every overload wins some shape
    for _ in range(2):
        for args, want in zip(calls, verdicts):
            assert site_call(g, args) == want, args
            if want[0] == "selected":
                assert converted_as_declared(reg, seen), args


def test_site_remembers_at_most_its_bound(monkeypatch):
    # g's first overload is lone, but no object fits its class slot
    # exactly: each is nil, a plain table or a proxy of a strict subclass
    # of ora.Base, so that every call reaches the site
    reg, conv = build_world(site_class(
        "Two", {"g": [(ClassTag("ora.Base"), FLOAT),
                      (ClassTag("ora.Base"), INTEGER)]}, []),
        HostClassDescriptor(name="ora.Twig", base="ora.Leaf"))
    objects = [NIL, Table()] + [conv.to_script(reg.instantiate(n, []))
                                for n in ("ora.Derived", "ora.Leaf",
                                          "ora.Twig")]
    calls = [[o, n] for o in objects for n in (3.0, 2.5)]
    assert len(calls) > SHAPES_PER_SITE  # one call per shape
    resolved = []
    real = registry.resolve_overload
    monkeypatch.setattr(registry, "resolve_overload",
                        lambda *a: resolved.append(a) or real(*a))
    g = table_get(conv.class_proxy("Two"), "g")
    for _ in range(3):
        for args in calls:
            assert g.fn(args) == ["g[class:ora.Base, float]"]
    # the first SHAPES_PER_SITE shapes resolve once, later ones every time
    beyond = len(calls) - SHAPES_PER_SITE
    assert len(resolved) == SHAPES_PER_SITE + 3 * beyond


def test_warm_site_still_validates_receivers():
    def set_n(self, x):
        self.fields["n"] = int(x) if x < 100 else x  # breaks the tag

    cell = HostClassDescriptor(
        name="Cell", fields={"n": FieldSpec(INTEGER)},
        methods={"set": [MethodDescriptor("set", (FLOAT,), VOID, False,
                                          set_n)]})
    reg, conv = build_world(cell, validate_invokes=True)
    p = conv.to_script(reg.instantiate("Cell", []))
    for x in (5.5, 6.5):
        table_get(p, "set").fn([p, x])
    assert p.entries["__hostref"].fields["n"] == 6
    with pytest.raises(HostException, match="violates its tag"):
        table_get(p, "set").fn([p, 100.5])
