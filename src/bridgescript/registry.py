"""Host class registry: a reflection layer over plain Python state.

Classes and interfaces are described by descriptors (fields, methods,
constructors, single base class) and registered while the registry is
open.  freeze() then validates every type reference, flattens members
over base chains (derived entries shadow base entries with the same
signature), and enables lookups.  After freeze the registry structure is
immutable; only instance fields, static field values and array elements
change.

Method bodies are native Python callables.  Instance bodies receive the
HostObject as their first argument, static bodies receive the declared
parameters only.  Host values are Python values: int, float, str, bool,
None, HostObject, HostArray, or a ScriptWrapper, the table inbound
exports as an interface or class.

resolve_overload is the one overload rule, for calls from either side:
each argument scores 2 (exact) or 1 (coercion) and the unique maximum
sum wins.  Converter.to_host scores script values, score_host host ones.

call_site is the one way a call chooses among overloads, from either
side: resolve_overload behind a cache keyed by argument shapes that
skips selection, never conversion, and keeps no refusal.  The registry
keeps the host-side sites.

invoker(m) is the one way a native body runs, for calls from either
side: host errors become HostException, the result is checked against
the return tag, and validate_invokes re-checks the receiver.  A
constructor's invoker makes, fills and returns the new object; both
sides find constructors through constructors(name).
"""

import inspect
import itertools
import sys
from dataclasses import dataclass, field as dc_field

from .errors import (
    Ambiguous,
    BridgeScriptError,
    ClassNotFound,
    DescriptorError,
    DuplicateClass,
    FieldMethodNameCollision,
    HostException,
    IndexOutOfBounds,
    InterfaceNotInstantiable,
    NoMatch,
    NoSuchField,
    NoSuchMember,
    NotFrozen,
    RegistryFrozen,
    TypeMismatch,
    UnknownBase,
)

_uid = itertools.count(1).__next__
_FLOAT_MAX = sys.float_info.max
# The argument shape of an integral number, script or host.
INTEGRAL = object()
# Argument shapes one call site remembers; calls of further shapes
# resolve every time.  The busiest sites of the perfbench workloads see
# at most 4 shapes (Point.move: two numbers, each integral or
# fractional), all of them remembered; 8 leaves room for twice that.
SHAPES_PER_SITE = 8


# ------------------------------------------------------------------ type tags

class PrimTag:
    __slots__ = ("kind",)

    def __init__(self, kind: str):
        self.kind = kind

    def __repr__(self) -> str:
        return self.kind


BOOLEAN = PrimTag("boolean")
INTEGER = PrimTag("integer")
FLOAT = PrimTag("float")
TEXT = PrimTag("text")
VOID = PrimTag("void")
# Primitive tags whose slots hold values of one class, a class scripts
# share: such a value conforms, and is a script value, as it is.
AS_IS = {FLOAT: float, TEXT: str, BOOLEAN: bool}


@dataclass(frozen=True, slots=True)
class ClassTag:
    name: str

    def __repr__(self) -> str:
        return f"class:{self.name}"


@dataclass(frozen=True, slots=True)
class InterfaceTag:
    name: str

    def __repr__(self) -> str:
        return f"interface:{self.name}"


@dataclass(frozen=True, slots=True)
class ArrayTag:
    elem: object

    def __repr__(self) -> str:
        return f"array:{self.elem!r}"


def zero_value(tag):
    """Default slot value per tag: primitive zero or a null reference."""
    if tag is INTEGER:
        return 0
    if tag is FLOAT:
        return 0.0
    if tag is TEXT:
        return ""
    if tag is BOOLEAN:
        return False
    return None


_UNSET = object()


@dataclass(frozen=True)
class FieldSpec:
    tag: object
    static: bool = False
    initial: object = _UNSET


@dataclass(frozen=True, eq=False)
class MethodDescriptor:
    name: str
    params: tuple
    returns: object
    static: bool = False
    body: object = None


@dataclass
class HostClassDescriptor:
    name: str
    kind: str = "class"  # "class" | "interface"
    base: str | None = None
    fields: dict = dc_field(default_factory=dict)        # name -> FieldSpec
    methods: dict = dc_field(default_factory=dict)       # name -> [MethodDescriptor]
    constructors: list = dc_field(default_factory=list)  # [MethodDescriptor]


class HostObject:
    __slots__ = ("class_name", "fields", "uid", "__weakref__")

    def __init__(self, class_name: str, fields: dict):
        self.class_name = class_name
        self.fields = fields
        self.uid = _uid()

    def __repr__(self) -> str:
        return f"{self.class_name}#{self.uid}"


class HostArray:
    __slots__ = ("elem_tag", "elements", "uid", "__weakref__")

    def __init__(self, elem_tag, elements: list):
        self.elem_tag = elem_tag
        self.elements = elements
        self.uid = _uid()

    def __repr__(self) -> str:
        return f"{self.elem_tag!r}[{len(self.elements)}]#{self.uid}"


class ScriptWrapper:
    """A script table standing in for the host type target_type (see
    inbound): host code calls its methods through invoke_method."""

    __slots__ = ("target_type", "script_object", "backing", "_bridge",
                 "__weakref__")

    def __init__(self, bridge, target_type: str, script_object, backing):
        self._bridge = bridge
        self.target_type = target_type
        self.script_object = script_object
        self.backing = backing  # HostObject for class targets, else None

    def invoke_method(self, name: str, host_args: list):
        return self._bridge.wrapper_invoke(self, name, host_args)

    def __repr__(self) -> str:
        return f"<wrapper {self.target_type} over table#{self.script_object.uid}>"


@dataclass(frozen=True)
class HostClassRef:
    """Opaque handle a class proxy keeps under its __hostref entry."""

    name: str

    def __repr__(self) -> str:
        return f"class {self.name}"


class Converted:
    __slots__ = ("value", "score")

    def __init__(self, value, score: int):
        self.value = value
        self.score = score

    def __repr__(self) -> str:
        return f"Converted({self.value!r}, score={self.score})"


class Incompatible:
    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self) -> str:
        return f"Incompatible({self.reason!r})"


def resolve_overload(cands, args, front, owner: str):
    """(method, converted args) for the one of cands, the overloads of a
    method or constructors of class owner, that front(value, tag) scores
    highest on args, else NoMatch or Ambiguous.  Only the winner's
    converted values are read, so a table is wrapped for it alone."""
    best, best_score, tied = None, -1, ()
    for m in cands:
        if len(m.params) != len(args):
            continue
        score = 0
        convs = []
        for v, tag in zip(args, m.params):
            r = front(v, tag)
            if r.__class__ is Incompatible:
                break
            score += r.score
            convs.append(r)
        else:
            if score > best_score:
                best, best_score, best_convs, tied = m, score, convs, ()
            elif score == best_score:
                tied = (tied or (best,)) + (m,)
    if best is None or tied:
        name = cands[0].name
        what = (f"constructor of {owner!r}" if name == "<init>"
                else f"overload of {owner}.{name}")
        if tied:
            raise Ambiguous(
                f"more than one {what} fits these arguments equally well",
                tied)
        raise NoMatch(f"no {what} accepts these arguments")
    return best, [r.value for r in best_convs]  # the winner's values only


def call_site(cands, owner: str, front, shape, converter_for):
    """select(args) -> resolve_overload(cands, args, front, owner), with
    the verdicts for up to SHAPES_PER_SITE argument shapes remembered.
    Values of one shape must score alike on every tag; converter_for(v,
    tag) converts them as front does, or is None if front keeps them."""
    cache: dict = {}  # argument shapes -> (method, converters or None)

    def select(args: list):
        n = len(args)  # short calls spelt out: map() costs more
        if n == 1:
            key = (shape(args[0]),)
        elif n == 2:
            key = (shape(args[0]), shape(args[1]))
        else:
            key = tuple(map(shape, args)) if n else ()
        hit = cache.get(key)
        if hit is None:
            m, converted = resolve_overload(cands, args, front, owner)
            if len(cache) < SHAPES_PER_SITE:
                convs = tuple(map(converter_for, args, m.params))
                cache[key] = (m, convs if any(convs) else None)
            return m, converted
        m, convs = hit
        if convs is not None:
            args = [v if c is None else c(v) for c, v in zip(convs, args)]
        return m, args
    return select


def host_shape(v):
    """v's row in score_host's rule: a host object's class name, an
    integral number (an int inside the float range or an integral
    float), an array's element tag, a wrapper's target type, else v's
    class (a fractional float, an int beyond the float range, ...)."""
    cls = v.__class__
    if cls is HostObject:
        return v.class_name
    if cls is float:
        return INTEGRAL if v.is_integer() else float
    if cls is int:
        return INTEGRAL if abs(v) <= _FLOAT_MAX else int
    if cls is HostArray:
        return v.elem_tag
    if cls is ScriptWrapper:
        return (ScriptWrapper, v.target_type)  # equals no class name
    return cls


def _host_converter(v, tag):
    """converter_for of score_host: numbers become the slot's kind."""
    return float if tag is FLOAT else int if tag is INTEGER else None


class HostRegistry:
    def __init__(self, validate_invokes: bool = False):
        self._classes: dict[str, HostClassDescriptor] = {}
        self._flat: dict[str, HostClassDescriptor] = {}
        self._ancestors: dict[str, frozenset] = {}
        self._statics: dict[str, dict] = {}
        self._static_home: dict[str, dict] = {}
        self._instance_inits: dict[str, dict] = {}
        self._frozen = False
        self._invokers: dict = {}  # MethodDescriptor -> invoker(m)
        self._sites: dict = {}  # (class, method) or class -> call_site
        # Conformance re-check of receiver fields after every invoke.
        # Costly, so off by default; the test suite turns it on.
        self.validate_invokes = validate_invokes

    @property
    def frozen(self) -> bool:
        return self._frozen

    # ------------------------------------------------------------ lifecycle

    def register_class(self, d: HostClassDescriptor) -> None:
        if self._frozen:
            raise RegistryFrozen("cannot register classes after freeze")
        if not d.name or not isinstance(d.name, str):
            raise DescriptorError("class name must be a non-empty string")
        if d.name in self._classes:
            raise DuplicateClass(f"class {d.name!r} is already registered")
        if d.kind not in ("class", "interface"):
            raise DescriptorError(f"unknown kind {d.kind!r} for {d.name!r}")

        if d.base is not None:
            if d.kind == "interface":
                raise DescriptorError(f"interface {d.name!r} cannot have a base")
            base = self._classes.get(d.base)
            if base is None or base.kind != "class":
                raise UnknownBase(
                    f"base {d.base!r} of {d.name!r} is not a registered class")

        if d.kind == "interface":
            if d.fields:
                raise DescriptorError(f"interface {d.name!r} cannot declare fields")
            if d.constructors:
                raise DescriptorError(
                    f"interface {d.name!r} cannot declare constructors")

        fields = self._check_fields(d)
        methods = self._check_methods(d)
        constructors = self._check_constructors(d)
        self._check_collisions(d, fields, methods)

        self._classes[d.name] = HostClassDescriptor(
            name=d.name,
            kind=d.kind,
            base=d.base,
            fields=fields,
            methods=methods,
            constructors=constructors,
        )

    def _check_fields(self, d: HostClassDescriptor) -> dict:
        out = {}
        for name, spec in d.fields.items():
            if spec.tag is VOID:
                raise DescriptorError(f"field {d.name}.{name} cannot be void")
            initial = spec.initial
            if initial is _UNSET:
                initial = zero_value(spec.tag)
            else:
                initial = normalize(spec.tag, initial)
                if not isinstance(initial, (int, float, str, bool, type(None))):
                    raise DescriptorError(
                        f"initial value of {d.name}.{name} must be a primitive or null")
                if not self.conforms(initial, spec.tag):
                    raise DescriptorError(
                        f"initial value of {d.name}.{name} does not match its tag")
            out[name] = FieldSpec(spec.tag, spec.static, initial)
        return out

    def _check_methods(self, d: HostClassDescriptor) -> dict:
        out = {}
        for name, overloads in d.methods.items():
            seen_sigs = set()
            statics = set()
            cleaned = []
            for m in overloads:
                if m.name != name:
                    raise DescriptorError(
                        f"method {m.name!r} registered under key {name!r} in {d.name!r}")
                if d.kind == "interface":
                    if m.body is not None:
                        raise DescriptorError(
                            f"interface method {d.name}.{name} cannot have a body")
                    if m.static:
                        raise DescriptorError(
                            f"interface method {d.name}.{name} cannot be static")
                elif m.body is None:
                    raise DescriptorError(
                        f"class method {d.name}.{name} needs a native body")
                sig = tuple(m.params)
                if sig in seen_sigs:
                    raise DescriptorError(
                        f"duplicate overload signature for {d.name}.{name}")
                seen_sigs.add(sig)
                statics.add(m.static)
                _check_body_arity(d.name, m)
                cleaned.append(MethodDescriptor(
                    name, tuple(m.params), m.returns, m.static, m.body))
            if len(statics) > 1:
                raise DescriptorError(
                    f"overloads of {d.name}.{name} mix static and instance")
            out[name] = cleaned
        return out

    def _check_constructors(self, d: HostClassDescriptor) -> list:
        out = []
        seen = set()
        tag = ClassTag(d.name)
        for c in d.constructors:
            sig = tuple(c.params)
            if sig in seen:
                raise DescriptorError(
                    f"duplicate constructor signature for {d.name!r}")
            seen.add(sig)
            ctor = MethodDescriptor("<init>", sig, tag, False, c.body)
            _check_body_arity(d.name, ctor)
            out.append(ctor)
        return out

    def _check_collisions(self, d, fields: dict, methods: dict) -> None:
        both = set(fields) & set(methods)
        if both:
            raise FieldMethodNameCollision(
                f"{d.name!r} declares {sorted(both)[0]!r} as both field and method")
        # against the flattened base chain: a name may shadow only its own kind
        base = d.base
        while base is not None:
            bd = self._classes[base]
            for name in fields:
                if name in bd.methods:
                    raise FieldMethodNameCollision(
                        f"field {d.name}.{name} collides with method of base {base!r}")
            for name in methods:
                if name in bd.fields:
                    raise FieldMethodNameCollision(
                        f"method {d.name}.{name} collides with field of base {base!r}")
            base = bd.base

    def freeze(self) -> None:
        """Validate cross references and build flattened views. Idempotent."""
        if self._frozen:
            return
        for d in self._classes.values():
            for name, spec in d.fields.items():
                self._check_tag(spec.tag, f"field {d.name}.{name}")
            for overloads in d.methods.values():
                for m in overloads:
                    for t in m.params:
                        self._check_tag(t, f"parameter of {d.name}.{m.name}")
                        if t is VOID:
                            raise DescriptorError(
                                f"parameter of {d.name}.{m.name} cannot be void")
                    if m.returns is not VOID:
                        self._check_tag(m.returns, f"return of {d.name}.{m.name}")
            for c in d.constructors:
                for t in c.params:
                    self._check_tag(t, f"constructor parameter of {d.name}")
                    if t is VOID:
                        raise DescriptorError(
                            f"constructor parameter of {d.name} cannot be void")

        for name, d in self._classes.items():  # bases precede derived classes
            if d.kind == "interface":
                flat = HostClassDescriptor(
                    name=name, kind="interface", base=None,
                    fields={}, methods={k: list(v) for k, v in d.methods.items()},
                    constructors=[])
                self._flat[name] = flat
                self._ancestors[name] = frozenset()
            else:
                self._flat[name] = self._flatten_class(d)
                chain = frozenset(() if d.base is None
                                  else self._ancestors[d.base] | {d.base})
                self._ancestors[name] = chain
                self._build_statics(d)
                self._instance_inits[name] = {
                    fname: spec.initial
                    for fname, spec in self._flat[name].fields.items()
                    if not spec.static
                }
        self._frozen = True

    def _flatten_class(self, d: HostClassDescriptor) -> HostClassDescriptor:
        if d.base is None:
            fields: dict = {}
            methods: dict = {}
        else:
            base_flat = self._flat[d.base]
            fields = dict(base_flat.fields)
            methods = {k: list(v) for k, v in base_flat.methods.items()}
        fields.update(d.fields)
        for name, overloads in d.methods.items():
            merged = methods.get(name)
            if merged is None:
                methods[name] = list(overloads)
                continue
            if merged and any(m.static != overloads[0].static for m in merged):
                raise DescriptorError(
                    f"overloads of {d.name}.{name} mix static and instance "
                    f"across the base chain")
            for m in overloads:
                for i, existing in enumerate(merged):
                    if existing.params == m.params:
                        merged[i] = m  # derived shadows same signature
                        break
                else:
                    merged.append(m)
        # mirror the host language convention of an implicit default
        ctors = d.constructors or [
            MethodDescriptor("<init>", (), ClassTag(d.name), False, None)]
        return HostClassDescriptor(
            name=d.name, kind="class", base=d.base,
            fields=fields, methods=methods, constructors=ctors)

    def _build_statics(self, d: HostClassDescriptor) -> None:
        home = dict(self._static_home.get(d.base, {})) if d.base else {}
        own = {}
        for fname, spec in d.fields.items():
            if spec.static:
                own[fname] = spec.initial
                home[fname] = d.name
        self._statics[d.name] = own
        self._static_home[d.name] = home

    def _check_tag(self, tag, where: str) -> None:
        if isinstance(tag, PrimTag):
            return
        if isinstance(tag, ClassTag):
            d = self._classes.get(tag.name)
            if d is None:
                raise ClassNotFound(f"{where}: no class named {tag.name!r}")
            if d.kind != "class":
                raise DescriptorError(f"{where}: {tag.name!r} is not a class")
            return
        if isinstance(tag, InterfaceTag):
            d = self._classes.get(tag.name)
            if d is None:
                raise ClassNotFound(f"{where}: no interface named {tag.name!r}")
            if d.kind != "interface":
                raise DescriptorError(f"{where}: {tag.name!r} is not an interface")
            return
        if isinstance(tag, ArrayTag):
            self._check_tag(tag.elem, where)
            return
        raise DescriptorError(f"{where}: invalid type tag {tag!r}")

    # -------------------------------------------------------------- lookups

    def lookup_class(self, name: str) -> HostClassDescriptor:
        if not self._frozen:
            raise NotFrozen("lookups are permitted only after freeze")
        flat = self._flat.get(name)
        if flat is None:
            raise ClassNotFound(f"no class or interface named {name!r}")
        return flat

    def is_subclass(self, name: str, base: str) -> bool:
        """Strict: a class is not its own subclass."""
        anc = self._ancestors.get(name)
        return anc is not None and base in anc

    def has_default_constructor(self, name: str) -> bool:
        flat = self.lookup_class(name)
        return flat.kind == "class" and any(
            len(c.params) == 0 for c in flat.constructors)

    # ------------------------------------------------------------ instances

    def constructors(self, name: str) -> list:
        """The constructors of the class name; InterfaceNotInstantiable
        for an interface."""
        flat = self.lookup_class(name)
        if flat.kind != "class":
            raise InterfaceNotInstantiable(
                f"{name!r} is an interface and cannot be instantiated")
        return flat.constructors

    def instantiate(self, name: str, args: list):
        """Construct name from host values, by the overload rule."""
        select = self._sites.get(name)
        if select is None:
            select = self._sites[name] = call_site(
                self.constructors(name), name, self.score_host, host_shape,
                _host_converter)
        ctor, args = select(args)
        return self.invoker(ctor)(None, args)

    def invoker(self, m: MethodDescriptor):
        """invoke(receiver, host args) -> host result of m, built once per
        method: the body run with host errors wrapped as HostException,
        the result normalized and checked against the return tag (None
        for void), and the receiver checked if validate_invokes was on."""
        invoke = self._invokers.get(m)
        if invoke is not None:
            return invoke
        body, name, tag, static = m.body, m.name, m.returns, m.static
        validate = self.validate_invokes
        if name == "<init>":
            cname, inits = tag.name, self._instance_inits[tag.name]

            def invoke(receiver, args: list):
                obj = HostObject(cname, dict(inits))
                try:
                    if body is not None:
                        body(obj, *args)
                except BridgeScriptError:
                    raise
                except Exception as e:  # noqa: BLE001 - host code
                    raise HostException(f"constructor of {cname}: {e}") from e
                if validate:
                    self.validate_object(obj)
                return obj
        elif tag is VOID and not static and not m.params and not validate:
            # c:inc(), the commonest call: a direct body(receiver) costs
            # under half of what body(receiver, *args) does
            def invoke(receiver, args: list):
                try:
                    body(receiver)
                except BridgeScriptError:
                    raise
                except Exception as e:  # noqa: BLE001 - host code
                    raise HostException(f"{name}: {e}") from e
        else:
            as_is = AS_IS.get(tag)
            conforms = self.conforms

            def invoke(receiver, args: list):
                try:
                    r = body(*args) if static else body(receiver, *args)
                except BridgeScriptError:
                    raise
                except Exception as e:  # noqa: BLE001 - host code
                    raise HostException(f"{name}: {e}") from e
                if tag is VOID:
                    r = None
                elif r.__class__ is not as_is:
                    r = normalize(tag, r)
                    if not conforms(r, tag):
                        raise HostException(
                            f"native body of {name!r} returned a value "
                            f"that does not conform to {tag!r}")
                if validate and receiver is not None:
                    self.validate_object(receiver)
                return r
        self._invokers[m] = invoke
        return invoke

    def site(self, cname: str, name: str):
        """The call_site of host calls of cname's method name."""
        select = self._sites.get((cname, name))
        if select is None:
            cands = self.lookup_class(cname).methods.get(name)
            if not cands or cands[0].static:
                raise NoSuchMember(cname, name)
            select = self._sites[(cname, name)] = call_site(
                cands, cname, self.score_host, host_shape, _host_converter)
        return select

    def call_method(self, target, name: str, args: list):
        """Host-side dynamic dispatch: works on host objects and wrappers."""
        if target.__class__ is HostObject:
            m, args = self.site(target.class_name, name)(args)
            return self.invoker(m)(target, args)
        if target.__class__ is ScriptWrapper:
            return target.invoke_method(name, args)
        raise HostException(f"cannot call {name!r} on {target!r}")

    def score_host(self, v, tag):
        """Host-value front end of resolve_overload.  Numbers score as
        script numbers; anything else that conforms is exact on its own
        type and a coercion as None, a subclass instance or a wrapper."""
        cls = v.__class__
        if cls is HostObject:  # tested first: the commonest host argument
            if tag.__class__ is ClassTag:
                if v.class_name == tag.name:
                    return Converted(v, 2)
                if self.is_subclass(v.class_name, tag.name):
                    return Converted(v, 1)
        elif cls is int or cls is float:  # both are numbers to a script
            # an int beyond the float range becomes no script number
            if tag is FLOAT and (cls is float or abs(v) <= _FLOAT_MAX):
                return Converted(float(v), 2)
            if tag is INTEGER and (cls is int or v.is_integer()):
                return Converted(int(v), 1)
        elif self.conforms(v, tag):
            return Converted(v, 1 if v is None or cls is ScriptWrapper else 2)
        return Incompatible("no conversion to this slot")

    # --------------------------------------------------------------- fields

    def get_field(self, owner, name: str):
        spec, stash = self.resolve_field(owner, name)
        if spec.static:
            return stash[name]
        return owner.fields[name]

    def set_field(self, owner, name: str, value) -> None:
        spec, stash = self.resolve_field(owner, name)
        value = normalize(spec.tag, value)
        if not self.conforms(value, spec.tag):
            raise TypeMismatch(
                f"cannot store {value!r} into field {name!r} of tag {spec.tag!r}")
        if spec.static:
            stash[name] = value
        else:
            owner.fields[name] = value

    def resolve_field(self, owner, name: str):
        """(spec, the dict holding the value) for a static field of the
        class named owner; (spec, None) for an instance field of the
        HostObject owner."""
        if isinstance(owner, str):
            flat = self.lookup_class(owner)
            spec = flat.fields.get(name)
            if spec is None or not spec.static:
                raise NoSuchField(f"{owner!r} has no static field {name!r}")
            home = self._static_home[owner][name]
            return spec, self._statics[home]
        if isinstance(owner, HostObject):
            flat = self.lookup_class(owner.class_name)
            spec = flat.fields.get(name)
            if spec is None or spec.static:
                raise NoSuchField(
                    f"{owner.class_name!r} has no instance field {name!r}")
            return spec, None
        raise NoSuchField(f"cannot resolve field {name!r} on {owner!r}")

    def validate_object(self, obj: HostObject) -> None:
        """HostException unless obj's fields are its class's, each
        conforming to its tag (the validate_invokes check)."""
        inits = self._instance_inits.get(obj.class_name)
        flat = self._flat[obj.class_name]
        if inits is None or set(obj.fields) != set(inits):
            raise HostException(
                f"field map of {obj!r} does not match its descriptor")
        for fname, value in obj.fields.items():
            if not self.conforms(value, flat.fields[fname].tag):
                raise HostException(
                    f"field {fname!r} of {obj!r} violates its tag")

    # --------------------------------------------------------------- arrays

    def array_new(self, elem_tag, length: int) -> HostArray:
        if not isinstance(length, int) or isinstance(length, bool) or length < 0:
            raise IndexOutOfBounds(f"invalid array length {length!r}")
        return HostArray(elem_tag, [zero_value(elem_tag)] * length)

    def array_length(self, arr: HostArray) -> int:
        return len(arr.elements)

    def array_get(self, arr: HostArray, index: int):
        if 0 <= index < len(arr.elements):
            return arr.elements[index]
        raise index_error(index, len(arr.elements))

    def array_set(self, arr: HostArray, index: int, value) -> None:
        if not 0 <= index < len(arr.elements):
            raise index_error(index, len(arr.elements))
        value = normalize(arr.elem_tag, value)
        if not self.conforms(value, arr.elem_tag):
            raise TypeMismatch(
                f"cannot store {value!r} into an array of {arr.elem_tag!r}")
        arr.elements[index] = value

    # ---------------------------------------------------------- conformance

    def conforms(self, v, tag) -> bool:
        """Does an already host-typed value fit a slot of this tag?"""
        if tag is FLOAT:
            return type(v) is float
        if tag is INTEGER:
            return type(v) is int
        if tag is TEXT:
            return type(v) is str
        if tag is BOOLEAN:
            return type(v) is bool
        if tag is VOID:
            return v is None
        if isinstance(tag, ClassTag):
            cls = v.__class__  # v stands as class t, if any
            t = v.class_name if cls is HostObject else \
                v.target_type if cls is ScriptWrapper else None
            return v is None or t == tag.name or self.is_subclass(t, tag.name)
        if isinstance(tag, InterfaceTag):
            if v is None:
                return True
            return v.__class__ is ScriptWrapper and v.target_type == tag.name
        if isinstance(tag, ArrayTag):
            return v is None or (
                isinstance(v, HostArray) and v.elem_tag == tag.elem)
        return False


def normalize(tag, v):
    """v as a slot of tag holds it: an int in a float slot becomes a
    float.  An int beyond the float range stays an int, which the slot
    then refuses."""
    if tag is FLOAT and type(v) is int and abs(v) <= _FLOAT_MAX:
        return float(v)
    return v


def index_error(index: int, length: int) -> IndexOutOfBounds:
    return IndexOutOfBounds(
        f"index {index} out of bounds for length {length}")


def _check_body_arity(class_name: str, m: MethodDescriptor) -> None:
    if m.body is None:
        return
    try:
        sig = inspect.signature(m.body)
    except (TypeError, ValueError):
        return
    params = list(sig.parameters.values())
    if any(p.kind is inspect.Parameter.VAR_POSITIONAL for p in params):
        return
    positional = [p for p in params
                  if p.kind in (inspect.Parameter.POSITIONAL_ONLY,
                                inspect.Parameter.POSITIONAL_OR_KEYWORD)]
    expected = len(m.params) + (0 if m.static else 1)
    if len(positional) != expected:
        raise DescriptorError(
            f"native body of {class_name}.{m.name} takes {len(positional)} "
            f"positional argument(s), expected {expected}")

