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
from bridgescript.objects import NIL, NativeFunction, Table, table_get
from bridgescript.outbound import ELEMENTS, RETIRED, OutboundBridge
from bridgescript.registry import (
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
    conv = Converter(reg, outb.build_proxy, inb.auto_wrap)
    outb.converter = conv
    inb.converter = conv
    return reg, outb, conv


# --------------------------------------------------------------- proxy shape


def test_proxy_table_starts_nearly_empty(interp):
    interp.run('p = javaNewInstance("Point")')
    p = interp.global_value("p")
    assert isinstance(p, Table)
    assert set(p.entries) == {"__hostref"}
    assert isinstance(p.entries["__hostref"], HostObject)
    assert p.index_handler is interp.outbound._index_handler
    assert p.newindex_handler is interp.outbound._newindex_handler


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
    # the dispatcher is stored when an invocation completes, not at read
    interp.run('p = javaNewInstance("Point")\n'
               "f = p.move\n"
               "g = p.move")
    p = interp.global_value("p")
    assert interp.outbound.stats.fires(p, "move") == 2
    assert "move" not in p.entries
    interp.run("f(p, 2, 3)")
    assert "move" in p.entries
    assert p.entries["__hostref"].fields["x"] == 2.0


def test_method_identity_follows_call_history(interp):
    # each fallback fire returns a fresh one-shot function until a call
    # stores the shared dispatcher in the proxy; a plain table gives
    # true both times
    assert interp.run('p = hostNewInstance("Point")\n'
                      "a = p.move == p.move\n"
                      "p:move(1, 2)\n"
                      "return a, p.move == p.move") == [False, True]


def test_each_proxy_caches_independently(interp):
    interp.run('a = javaNewInstance("bench.Counter")\n'
               'b = javaNewInstance("bench.Counter")\n'
               "a:inc() a:inc() b:inc()")
    stats = interp.outbound.stats
    a, b = interp.global_value("a"), interp.global_value("b")
    assert stats.fires(a, "inc") == 1
    assert stats.fires(b, "inc") == 1
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
    # a failed invocation installs nothing; the fallback stays live
    assert "go" not in proxy.entries


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


@pytest.mark.parametrize("src, index", [("\nx = a[4]", 4), ("\na[0] = 1", 0)],
                         ids=["read", "write"])
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
    interp.run('local i = 0\n'
               'while i < 2000 do\n'
               '  local p = hostNewInstance("Point")\n'
               '  local x = p.x\n'
               '  i = i + 1\n'
               'end')
    gc.collect()
    assert interp.outbound.stats.fallback_fires == {RETIRED: 2000}


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
    assert stats.fires(p, "x") == 50
    assert stats.fallback_fires == {(p.uid, "x"): 50, RETIRED: 50}


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
    assert len(stats.fallback_fires) <= 4
    del a
    interp.run("a = nil")
    gc.collect()
    assert stats.fallback_fires[RETIRED] == 10001
    assert len(stats.fallback_fires) <= 3


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


# -------------------------------------------------------------- call sites


def test_call_sites_agree_with_referee():
    agree, total, example = run_site_trials(3_000)
    assert (agree, total) == (3_000, 3_000), example


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
    reg, conv = build_world(site_class(
        "Two", {"g": [(ClassTag("ora.Base"), FLOAT)]}, []))
    objects = [NIL, Table()] + [conv.to_script(reg.instantiate(n, []))
                                for n in ("ora.Base", "ora.Derived",
                                          "ora.Leaf")]
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
