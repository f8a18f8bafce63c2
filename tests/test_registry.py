"""Registry lifecycle, base-chain flattening, fields, arrays, manifests."""

import math

import pytest

from bridgescript import Interpreter, registry
from bridgescript.demo import build_demo_registry, demo_bodies, load_demo_manifest
from bridgescript.errors import (
    Ambiguous,
    ClassNotFound,
    DescriptorError,
    DuplicateClass,
    FieldMethodNameCollision,
    HostException,
    IndexOutOfBounds,
    InterfaceNotInstantiable,
    ManifestError,
    NoMatch,
    NoSuchField,
    NoSuchMember,
    NotFrozen,
    RegistryFrozen,
    TypeMismatch,
    UnknownBase,
)
from bridgescript.manifest import (
    format_tag,
    parse_tag,
    register_from_manifest,
)
from bridgescript.objects import NativeFunction, Table
from bridgescript.registry import (
    BOOLEAN,
    FLOAT,
    INTEGER,
    TEXT,
    VOID,
    ArrayTag,
    ClassTag,
    FieldSpec,
    HostClassDescriptor,
    HostRegistry,
    InterfaceTag,
    MethodDescriptor,
)

from overload_trials import build_world


def desc(name, **kw):
    return HostClassDescriptor(name=name, **kw)


def method(name, params=(), returns=VOID, static=False, body=None):
    return MethodDescriptor(name, tuple(params), returns, static, body)


# --------------------------------------------------------------- lifecycle

def test_lookup_requires_freeze():
    reg = HostRegistry()
    reg.register_class(desc("A", constructors=[method("<init>")]))
    with pytest.raises(NotFrozen):
        reg.lookup_class("A")
    reg.freeze()
    assert reg.lookup_class("A").name == "A"


def test_register_after_freeze_rejected():
    reg = HostRegistry()
    reg.freeze()
    with pytest.raises(RegistryFrozen):
        reg.register_class(desc("A"))


def test_freeze_is_idempotent():
    reg = HostRegistry()
    reg.register_class(desc("A"))
    reg.freeze()
    reg.freeze()
    assert reg.lookup_class("A").kind == "class"


def test_duplicate_class():
    reg = HostRegistry()
    reg.register_class(desc("A"))
    with pytest.raises(DuplicateClass):
        reg.register_class(desc("A"))


def test_unknown_base():
    reg = HostRegistry()
    with pytest.raises(UnknownBase):
        reg.register_class(desc("B", base="Ghost"))


def test_base_must_not_be_interface():
    reg = HostRegistry()
    reg.register_class(desc("I", kind="interface"))
    with pytest.raises(UnknownBase):
        reg.register_class(desc("B", base="I"))


def test_unknown_class_lookup():
    reg = HostRegistry()
    reg.freeze()
    with pytest.raises(ClassNotFound):
        reg.lookup_class("Nope")


def test_interface_constraints():
    reg = HostRegistry()
    with pytest.raises(DescriptorError):
        reg.register_class(desc(
            "I", kind="interface", fields={"x": FieldSpec(FLOAT)}))
    with pytest.raises(DescriptorError):
        reg.register_class(desc(
            "J", kind="interface", constructors=[method("<init>")]))


def test_class_method_needs_body():
    reg = HostRegistry()
    with pytest.raises(DescriptorError) as e:
        reg.register_class(desc("A", methods={"m": [method("m")]}))
    assert "body" in str(e.value)


def test_interface_method_must_not_have_body():
    reg = HostRegistry()
    with pytest.raises(DescriptorError):
        reg.register_class(desc(
            "I", kind="interface",
            methods={"m": [method("m", body=lambda self: None)]}))


def test_field_method_collision():
    reg = HostRegistry()
    with pytest.raises(FieldMethodNameCollision):
        reg.register_class(desc(
            "A",
            fields={"m": FieldSpec(FLOAT)},
            methods={"m": [method("m", body=lambda self: None)]}))


def test_mixed_static_overloads_rejected():
    reg = HostRegistry()
    with pytest.raises(DescriptorError):
        reg.register_class(desc("A", methods={"m": [
            method("m", (FLOAT,), VOID, True, lambda x: None),
            method("m", (TEXT,), VOID, False, lambda s, x: None),
        ]}))


def test_freeze_validates_type_references():
    reg = HostRegistry()
    reg.register_class(desc("A", methods={
        "m": [method("m", (ClassTag("Ghost"),), VOID,
                     body=lambda s, x: None)]}))
    with pytest.raises(ClassNotFound):
        reg.freeze()


def test_void_field_rejected():
    reg = HostRegistry()
    with pytest.raises(DescriptorError):
        reg.register_class(desc("A", fields={"x": FieldSpec(VOID)}))


def test_body_arity_checked_at_registration():
    reg = HostRegistry()
    with pytest.raises(DescriptorError) as e:
        # instance body must accept the receiver plus one parameter
        reg.register_class(desc("A", methods={
            "m": [method("m", (FLOAT,), VOID, body=lambda self: None)]}))
    assert "positional" in str(e.value)


# -------------------------------------------------------------- flattening

def chain_registry():
    reg = HostRegistry()
    reg.register_class(desc(
        "Top",
        fields={"a": FieldSpec(FLOAT)},
        methods={
            "who": [method("who", (), TEXT, body=lambda s: "Top")],
            "only": [method("only", (), TEXT, body=lambda s: "base-only")],
        }))
    reg.register_class(desc(
        "Mid", base="Top",
        fields={"b": FieldSpec(TEXT)},
        methods={"who": [method("who", (), TEXT, body=lambda s: "Mid")]}))
    reg.register_class(desc(
        "Bottom", base="Mid",
        methods={"who": [
            method("who", (FLOAT,), TEXT, body=lambda s, n: "Bottom+n")]}))
    reg.freeze()
    return reg


def test_flattening_merges_fields_and_methods():
    reg = chain_registry()
    flat = reg.lookup_class("Bottom")
    assert set(flat.fields) == {"a", "b"}
    # same-signature override replaced Top's body; the new arity is added
    assert [m.params for m in flat.methods["who"]] == [(), (FLOAT,)]
    assert flat.methods["only"][0].body is not None


def test_override_dispatches_to_derived_body():
    reg = chain_registry()
    mid = reg.instantiate("Mid", [])
    assert reg.call_method(mid, "who", []) == "Mid"
    assert reg.call_method(mid, "only", []) == "base-only"


def test_subclass_relation_is_strict():
    reg = chain_registry()
    assert reg.is_subclass("Bottom", "Top")
    assert reg.is_subclass("Bottom", "Mid")
    assert not reg.is_subclass("Top", "Bottom")
    assert not reg.is_subclass("Top", "Top")


def test_implicit_default_constructor():
    reg = chain_registry()
    assert reg.has_default_constructor("Top")
    obj = reg.instantiate("Top", [])
    assert obj.fields == {"a": 0.0}


# ------------------------------------------------------------ demo classes

@pytest.fixture(scope="module")
def demo():
    return build_demo_registry()


def test_interface_not_instantiable(demo):
    with pytest.raises(InterfaceNotInstantiable):
        demo.instantiate("demo.ActionListener", [])


def test_constructor_selection(demo):
    plain = demo.instantiate("demo.Frame", [])
    titled = demo.instantiate("demo.Frame", ["Console"])
    assert plain.fields["title"] == ""
    assert titled.fields["title"] == "Console"
    with pytest.raises(NoMatch):
        demo.instantiate("demo.Frame", [1.5])


def test_instance_fields_are_independent(demo):
    p1 = demo.instantiate("demo.Point", [1.0, 2.0])
    p2 = demo.instantiate("demo.Point", [])
    assert (p1.fields["x"], p2.fields["x"]) == (1.0, 0.0)
    demo.set_field(p2, "x", 9.0)
    assert p1.fields["x"] == 1.0


def test_static_fields(demo):
    assert demo.get_field("demo.BorderLayout", "NORTH") == "North"
    demo.set_field("demo.BorderLayout", "NORTH", "Up")
    try:
        assert demo.get_field("demo.BorderLayout", "NORTH") == "Up"
    finally:
        demo.set_field("demo.BorderLayout", "NORTH", "North")


def test_field_errors(demo):
    p = demo.instantiate("demo.Point", [])
    with pytest.raises(NoSuchField):
        demo.get_field(p, "z")
    with pytest.raises(TypeMismatch):
        demo.set_field(p, "x", "not a number")


def test_method_return_conformance():
    reg = HostRegistry()
    reg.register_class(desc("Liar", methods={
        "m": [method("m", (), TEXT, body=lambda s: 42)]}))
    reg.freeze()
    obj = reg.instantiate("Liar", [])
    with pytest.raises(HostException):
        reg.call_method(obj, "m", [])


def test_host_exception_wraps_body_errors():
    reg = HostRegistry()

    def boom(self):
        raise RuntimeError("kaput")

    reg.register_class(desc("Bomb", methods={
        "go": [method("go", (), VOID, body=boom)]}))
    reg.freeze()
    obj = reg.instantiate("Bomb", [])
    with pytest.raises(HostException) as e:
        reg.call_method(obj, "go", [])
    assert "kaput" in str(e.value)


def test_raising_constructor_is_a_host_exception_from_either_side(out):
    def init(self, x):
        raise ValueError("no good")

    reg = HostRegistry()
    reg.register_class(desc("Fussy", constructors=[
        method("<init>", (FLOAT,), body=init)]))
    reg.freeze()
    for _ in range(2):  # a cold site, then a warm one
        with pytest.raises(HostException) as e:
            reg.instantiate("Fussy", [1.0])
        assert e.value.message == "constructor of Fussy: no good"
        with pytest.raises(HostException) as e:
            Interpreter(reg, out=out).run('\nf = hostNewInstance("Fussy", 1)')
        assert e.value.message == "constructor of Fussy: no good"
        assert e.value.line == 2


def test_validation_checks_a_new_object(out):
    def init(self):
        self.fields["n"] = "text"  # breaks the field's tag

    reg = HostRegistry(validate_invokes=True)
    reg.register_class(desc("Broken", fields={"n": FieldSpec(INTEGER)},
                            constructors=[method("<init>", body=init)]))
    reg.freeze()
    with pytest.raises(HostException, match="violates its tag"):
        reg.instantiate("Broken", [])
    with pytest.raises(HostException, match="violates its tag"):
        Interpreter(reg, out=out).run('b = hostNewInstance("Broken")')


def test_call_method_errors(demo):
    p = demo.instantiate("demo.Point", [])
    with pytest.raises(HostException):
        demo.call_method(None, "move", [])
    with pytest.raises(NoMatch):
        demo.call_method(p, "move", [1.0])  # wrong arity


def test_validating_registry_accepts_demo_flow():
    reg = build_demo_registry(validate=True)
    p = reg.instantiate("demo.Point", [1.0, 2.0])
    reg.call_method(p, "move", [1.0, 1.0])
    assert p.fields == {"x": 2.0, "y": 3.0}


# ------------------------------------------------ host-side overload choice

def test_host_call_picks_overload_by_argument_type():
    """Same arity, different types: the scored rule, not the first
    overload of that arity, decides."""
    reg = HostRegistry()
    reg.register_class(desc("Two", methods={"f": [
        method("f", (FLOAT,), TEXT, body=lambda s, x: "float"),
        method("f", (TEXT,), TEXT, body=lambda s, x: "text")]}))
    reg.freeze()
    o = reg.instantiate("Two", [])
    assert reg.call_method(o, "f", ["hello"]) == "text"
    assert reg.call_method(o, "f", [2]) == "float"
    assert reg.call_method(o, "f", [2.5]) == "float"


def test_host_call_with_tied_overloads_is_ambiguous():
    reg = HostRegistry()
    reg.register_class(desc("A", constructors=[method("<init>")]))
    reg.register_class(desc("B", constructors=[method("<init>")]))
    reg.register_class(desc("Amb", methods={"pick": [
        method("pick", (ClassTag("A"),), VOID, body=lambda s, x: None),
        method("pick", (ClassTag("B"),), VOID, body=lambda s, x: None)]}))
    reg.freeze()
    with pytest.raises(Ambiguous):
        reg.call_method(reg.instantiate("Amb", []), "pick", [None])


def test_refused_host_calls_resolve_every_time(monkeypatch):
    """Host-side sites remember the overloads they chose, never a
    refusal: each NoMatch or Ambiguous from call_method, instantiate
    or a wrapper comes from a fresh resolve_overload."""
    two = (ClassTag("ora.Base"), ClassTag("ora.NoDefault"))
    reg, conv = build_world(
        desc("Amb", constructors=[method("<init>", (t,)) for t in two],
             methods={"pick": [method("pick", (t,), body=lambda s, x: None)
                               for t in two]}),
        desc("Picky", kind="interface",
             methods={"pick": [method("pick", (t,)) for t in two]}))
    base = reg.instantiate("ora.Base", [])
    obj = reg.instantiate("Amb", [base])
    t = Table()
    t.entries["pick"] = NativeFunction(lambda args: [], "pick")
    w = conv.auto_wrap(t, "Picky")
    calls = (lambda a: reg.call_method(obj, "pick", a),
             lambda a: reg.instantiate("Amb", a),
             lambda a: w.invoke_method("pick", a))
    resolved = []
    real = registry.resolve_overload
    monkeypatch.setattr(registry, "resolve_overload",
                        lambda *a: resolved.append(a) or real(*a))
    for call in calls:
        for args, error in (([None], Ambiguous), (["x"], NoMatch)) * 3:
            with pytest.raises(error):
                call(args)
    assert len(resolved) == 18
    resolved.clear()
    for call in calls:
        for _ in range(3):
            call([base])
    # an accepted shape resolves once per site; making obj warmed the
    # constructors' site for it
    assert len(resolved) == 2


def test_instantiate_converts_to_the_chosen_constructor(demo):
    p = demo.instantiate("demo.Point", [1, 2])
    assert p.fields["x"] == 1.0 and type(p.fields["x"]) is float
    assert p.fields["y"] == 2.0 and type(p.fields["y"]) is float


def test_call_method_checks_argument_types_before_the_body(demo):
    p = demo.instantiate("demo.Point", [])
    with pytest.raises(NoMatch):
        demo.call_method(p, "move", ["a", "b"])
    with pytest.raises(NoMatch):  # no script number holds it
        demo.call_method(p, "move", [10**400, 1.0])
    assert p.fields == {"x": 0.0, "y": 0.0}


def test_host_calls_accept_infinite_and_nan_floats(demo):
    p = demo.instantiate("demo.Point", [math.nan, 0.0])
    assert math.isnan(p.fields["x"])
    demo.call_method(p, "move", [math.inf, -math.inf])
    assert math.isnan(p.fields["x"]) and p.fields["y"] == -math.inf


def test_call_method_rejects_static_names(demo):
    m = demo.instantiate("demo.MathUtil", [])
    with pytest.raises(NoSuchMember):
        demo.call_method(m, "twice", [2.0])


# ------------------------------------------------------------------ arrays

def test_array_defaults(demo):
    a = demo.array_new(INTEGER, 3)
    assert a.elements == [0, 0, 0]
    assert demo.array_length(a) == 3
    b = demo.array_new(TEXT, 2)
    assert b.elements == ["", ""]


def test_array_bounds(demo):
    a = demo.array_new(FLOAT, 2)
    demo.array_set(a, 1, 5.0)
    assert demo.array_get(a, 1) == 5.0
    for bad in (-1, 2):
        with pytest.raises(IndexOutOfBounds):
            demo.array_get(a, bad)
        with pytest.raises(IndexOutOfBounds):
            demo.array_set(a, bad, 0.0)


def test_array_element_type(demo):
    a = demo.array_new(INTEGER, 1)
    with pytest.raises(TypeMismatch):
        demo.array_set(a, 0, "x")
    with pytest.raises(IndexOutOfBounds):
        demo.array_new(FLOAT, -1)


# --------------------------------------------------------------- manifests

def test_tag_round_trips():
    for s in ("boolean", "integer", "float", "text", "void",
              "class:demo.Frame", "interface:demo.ActionListener",
              "array:integer", "array:array:float", "array:class:X"):
        assert format_tag(parse_tag(s)) == s
    assert parse_tag("class:X") == ClassTag("X")
    assert parse_tag("array:integer") == ArrayTag(INTEGER)
    assert parse_tag("interface:I") == InterfaceTag("I")


@pytest.mark.parametrize("bad", ["", "classX", "class:", "array:", 7, None])
def test_bad_tags(bad):
    with pytest.raises(ManifestError):
        parse_tag(bad)


def test_manifest_requires_classes_list():
    reg = HostRegistry()
    with pytest.raises(ManifestError):
        register_from_manifest(reg, {"klasses": []})
    with pytest.raises(ManifestError):
        register_from_manifest(reg, {"classes": [{"kind": "class"}]})


def test_bare_list_manifest():
    reg = HostRegistry()
    register_from_manifest(reg, [{"name": "A"}])
    reg.freeze()
    assert reg.lookup_class("A").kind == "class"


def test_same_arity_overloads_get_distinct_bodies(demo):
    # describe(float) and describe(text) share an arity; bodies are keyed
    # by signature and must not be swapped
    mu = demo.lookup_class("demo.MathUtil")
    by_sig = {m.params: m for m in mu.methods["describe"]}
    assert by_sig[(FLOAT,)].body(2.0) == "number 2"
    assert by_sig[(TEXT,)].body("x") == "text x"


def test_demo_manifest_round_trips_through_registry():
    reg = HostRegistry()
    register_from_manifest(reg, load_demo_manifest(), demo_bodies(reg))
    reg.freeze()
    flat = reg.lookup_class("demo.Button")
    # inherited through EventSource and Component
    assert "listener" in flat.fields
    assert "describe" in flat.methods
    assert reg.is_subclass("demo.Button", "demo.Component")
