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
side, and the whole choice: select(args) returns the chosen overload's
record (its invoker, say) and the arguments as its slots hold them.  A
site is resolve_overload behind a cache keyed by argument shapes, which
keeps no refusal.  The cache remembers, per shape, the winner's record
and whether the front kept the arguments as they were; a hit of any
other shape converts them again through the front, so only to_host and
score_host know how a value converts.

lone_slots(m) is the one rule for a lone overload: m is lone if its
slots, however many, are each FLOAT, TEXT, BOOLEAN or a class.  A call
whose arguments are, one per slot, of the slot's class (for a class
slot, a host object of exactly that class name) has that overload for
its verdict, with the arguments as they are, however many overloads
stand beside it: each argument scores the most, 2, only in a slot of
its own tag, and no two overloads share a signature.  Such a call needs
no call site.

invoker(m) runs a native body for calls from either side: host errors
become HostException and a RecursionError the script's "stack
overflow", the result is checked against the return tag, and
validate_invokes re-checks the receiver.  A constructor's invoker
makes, fills and returns the new object; both sides find constructors
through constructors(name).  invoker(cands, general, ...) makes the
chain of cands, the overloads of a method or the constructors of a
class, instead: one lone crossing per lone overload, in order, each of
which, for arguments that fit its slots, runs the body and the result
check as the invoker would, and then general, the chain's general path,
which takes any other call, with its errors.  A single lone overload's
crossing is the chain of one entry; cands with no lone overload have
general for their chain.  The chain is built once, with its member, and
never grows.  A host-side chain takes (receiver, host args); a
script-side one, a dispatcher's or a hostNewInstance's, takes the
script's arguments, where a class slot's argument is a proxy and an
instance method's receiver is such a slot, placed first.  Every invoker
and every chain is made from the one template _FORM, compiled once per
spelling (per entry, its arity, slot kinds, side and result) and shared
by every registry; the arguments are passed to the body one by one.
The text of a crossing, crossing(), is also what the second tier writes
in place of a call of a script's method chain (see inplace).

The registry keeps the host-side entries: entries[class] for
constructors and entries[(class, method)] for the methods of host
objects.  methods(class, method) finds those methods, or refuses with
NoSuchMember, for the registry and inbound alike.  An entry does the
whole call: entry(receiver, host args) -> host result, with None as a
constructor's receiver.  The general entry selects through a call site
that records the overloads' invokers, then invokes; the entry is the
overloads' chain in front of it.  call_method on a
host object and instantiate are one lookup and one call.  On a wrapper
call_method calls the inbound bridge's entry, so a host object of class
X and a wrapper exported as X never share one.  An entry is built on
the first call and every receiver of its type shares it.  The tables
are plain dicts, since a dict subclass's lookup costs more; a miss
builds the entry, and a failed build (an undeclared method, say)
stores nothing.
"""

import functools
import inspect
import operator
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
    ScriptRuntimeError,
    TypeMismatch,
    UnknownBase,
)
from .objects import _EMPTY, Table

_FLOAT_MAX = sys.float_info.max
# The argument shape of an integral float, script or host, and of a host
# int inside the float range.
INTEGRAL = object()
_WHOLE = object()
# Argument shapes one call site remembers; calls of further shapes
# resolve every time.  The perfbench workloads' calls all fit a lone
# crossing of their chains, so their sites see only refusals, which
# are never remembered; a site taking coercions, an integral number for
# an integer slot or a subclass's proxy for a class slot, sees few
# shapes per overload, and 8 leaves room for twice 4.
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
# The class of values a slot of each primitive tag holds as they are.
_PLAIN = {**AS_IS, INTEGER: int}


class _Interned:
    """A tag made once per class and argument, its one slot, and shared
    by every later call with that argument, so that it hashes and
    compares by identity, as a PrimTag does."""

    __slots__ = ()
    _made: dict = {}

    def __new__(cls, arg):
        tag = _Interned._made.get((cls, arg))
        if tag is None:
            tag = _Interned._made[cls, arg] = object.__new__(cls)
            setattr(tag, cls.__slots__[0], arg)
        return tag


class ClassTag(_Interned):
    __slots__ = ("name",)

    def __repr__(self) -> str:
        return f"class:{self.name}"


class InterfaceTag(_Interned):
    __slots__ = ("name",)

    def __repr__(self) -> str:
        return f"interface:{self.name}"


class ArrayTag(_Interned):
    __slots__ = ("elem",)

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
    """An instance of a registered class.  proxies is None until a
    script first sees the object; then it maps each converter's token to
    a weak reference to that interpreter's live proxy (see convert)."""

    __slots__ = ("class_name", "fields", "proxies", "__weakref__")

    def __init__(self, class_name: str, fields: dict):
        self.class_name = class_name
        self.fields = fields
        self.proxies = None

    def __repr__(self) -> str:
        return f"{self.class_name}#{id(self)}"


class HostArray:
    """A host array of elem_tag elements; proxies as on HostObject."""

    __slots__ = ("elem_tag", "elements", "proxies", "__weakref__")

    def __init__(self, elem_tag, elements: list):
        self.elem_tag = elem_tag
        self.elements = elements
        self.proxies = None

    def __repr__(self) -> str:
        return f"{self.elem_tag!r}[{len(self.elements)}]#{id(self)}"


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
        key, bridge = (self.target_type, name), self._bridge
        entry = bridge.entries.get(key) or bridge._entry(key)
        return entry(self, host_args)

    def __repr__(self) -> str:
        return f"<wrapper {self.target_type} over table#{id(self.script_object)}>"


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


def call_site(cands, owner: str, front, shape, record):
    """select(args) -> (record(m), args as m's slots hold them) for the m
    that resolve_overload(cands, args, front, owner) chooses, with the
    verdicts for up to SHAPES_PER_SITE argument shapes remembered.  Values
    of one shape must score alike on every tag, and front must either
    keep every one of them or convert every one."""
    records = {m: record(m) for m in cands}  # built once per candidate
    cache: dict = {}  # argument shapes -> (record, tags to convert to or None)

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
                kept = all(map(operator.is_, converted, args))
                cache[key] = (records[m], None if kept else m.params)
            return records[m], converted
        rec, tags = hit
        if tags is not None:
            args = [front(v, tag).value for v, tag in zip(args, tags)]
        return rec, args
    return select


def host_shape(v):
    """v's row in score_host's rule: a host object's class name, an
    integral float, an int inside the float range, an array's element
    tag, a wrapper's target type, else v's class (a fractional float, an
    int beyond the float range, ...).  An int and an integral float score
    alike but convert the other way round, so their shapes differ."""
    cls = v.__class__
    if cls is HostObject:
        return v.class_name
    if cls is float:
        return INTEGRAL if v.is_integer() else float
    if cls is int:
        return _WHOLE if abs(v) <= _FLOAT_MAX else int
    if cls is HostArray:
        return v.elem_tag
    if cls is ScriptWrapper:
        return (ScriptWrapper, v.target_type)  # equals no class name
    return cls


class HostRegistry:
    def __init__(self, validate_invokes: bool = False):
        self._classes: dict[str, HostClassDescriptor] = {}
        self._flat: dict[str, HostClassDescriptor] = {}
        self._ancestors: dict[str, frozenset] = {}
        self._statics: dict[str, dict] = {}
        self._static_home: dict[str, dict] = {}
        self._instance_inits: dict[str, dict] = {}
        self._frozen = False
        self.entries: dict = {}  # see _entry
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
            self._check_element(tag.elem, where)
            return
        raise DescriptorError(f"{where}: invalid type tag {tag!r}")

    def _check_element(self, tag, where: str) -> None:
        """An array's element tag: any valid tag but void, at any depth."""
        if tag is VOID:
            raise DescriptorError(f"{where}: void is not an element type")
        self._check_tag(tag, where)

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

    def methods(self, owner: str, name: str) -> list:
        """The overloads of the instance method name of owner;
        NoSuchMember if owner declares none."""
        cands = self.lookup_class(owner).methods.get(name)
        if not cands or cands[0].static:
            raise NoSuchMember(owner, name)
        return cands

    def instantiate(self, name: str, args: list):
        """Construct name from host values, by the overload rule."""
        return (self.entries.get(name) or self._entry(name))(None, args)

    def invoker(self, m, general=None, to_script=None, stats=None,
                owner=None):
        """invoke(receiver, host args) -> host result of the overload m:
        the body run with host errors wrapped as HostException and a
        RecursionError as a stack overflow, the result normalized and
        checked against the return tag (None for void), and the receiver
        checked if validate_invokes was on.  Given general, m is a list
        of candidates and invoke their chain: the lone crossing of each
        candidate that lone_slots allows, which does so for arguments
        that fit its slots, and general, which takes any other call with
        the same arguments; with no such candidate, general itself.
        Given to_script too, the chain is a script's: invoke(script
        args), with an instance method's receiver first, as a slot of the
        class owner; a method's returns the script's results and counts
        in stats.dispatches, a constructor's returns the new object's
        proxy.  A script's method chain carries its spelling and its
        reads, per entry _form's arguments after general, so that the
        second tier can write it in place (see crossing)."""
        chain = [(m, None)] if general is None else [
            (c, slots) for c in m if (slots := lone_slots(c)) is not None]
        if not chain:
            return general
        script, spelling, reads = to_script is not None, [], []
        for m, slots in chain:
            new = m.name == "<init>"
            if script and not (m.static or new):  # the receiver comes first
                slots.insert(0, (HostObject, owner))
            result, plain, finish = self._finish(m)
            spelling.append((None if slots is None else
                             tuple(name is not None for _, name in slots),
                             len(m.params), m.static, new, result,
                             script and m.returns is VOID, script))
            cname = m.returns.name if new else None
            reads.append((
                _no_body if m.body is None else m.body,
                f"constructor of {cname}" if new else m.name, plain, finish,
                cname, self._instance_inits.get(cname), stats,
                None if plain is None else AS_IS.get(m.returns), to_script,
                *(cls if name is None else name for cls, name in slots or ())))
        invoke = _form(*spelling)(general, *(x for r in reads for x in r))
        if script and general is not None and not new:  # see inplace
            invoke.spelling, invoke.reads = tuple(spelling), reads
        return invoke

    def _finish(self, m: MethodDescriptor):
        """How invoker(m) finishes its body's result r: the text of the
        value it returns, over r and receiver (None for a static
        method), each with the prefix {p}, and the plain and finish that
        text reads, with the prefix {q} (see crossing).  A constructor
        returns the receiver, its new object.  A result of class plain
        passes unchecked; finish(r, receiver) normalizes and checks any
        other, and the receiver if validate_invokes is on."""
        tag, name, new = m.returns, m.name, m.name == "<init>"
        validate = self.validate_invokes
        if not validate and (new or tag is VOID):
            return "{p}receiver" if new else "None", None, None
        conforms = self.conforms

        def finish(r, receiver):
            if new:
                r = receiver
            elif tag is VOID:
                r = None
            else:
                r = normalize(tag, r)
                if not conforms(r, tag):
                    raise HostException(
                        f"native body of {name!r} returned a value "
                        f"that does not conform to {tag!r}")
            if validate and receiver is not None:
                self.validate_object(receiver)
            return r
        plain = None if validate or new else _PLAIN.get(tag)
        receiver = "None" if m.static else "{p}receiver"
        return (f"{{p}}r if {{p}}r.__class__ is {{q}}plain else "
                f"{{q}}finish({{p}}r, {receiver})", plain, finish)

    def _entry(self, key):
        """entries[key], built and stored: the entry of host calls of the
        constructors of the class key, or of the instance method
        (class, name) key."""
        if key.__class__ is str:
            owner, cands = key, self.constructors(key)
        else:
            owner, cands = key[0], self.methods(*key)
        select = call_site(cands, owner, self.score_host, host_shape,
                           self.invoker)

        def entry(receiver, args: list):
            invoke, args = select(args)
            return invoke(receiver, args)
        entry = self.entries[key] = self.invoker(cands, entry)
        return entry

    def call_method(self, target, name: str, args: list):
        """Host-side dynamic dispatch on a host object or a wrapper,
        through the one entry of the receiver's type and name."""
        if target.__class__ is HostObject:
            key = target.class_name, name
            return (self.entries.get(key) or self._entry(key))(target, args)
        if target.__class__ is ScriptWrapper:
            key, bridge = (target.target_type, name), target._bridge
            entry = bridge.entries.get(key) or bridge._entry(key)
            return entry(target, args)
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
        self._check_element(elem_tag, "array element")
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


# What each entry of a form closes over, in the order of its arguments,
# before the classes k0, k1, ... of a lone crossing's slots.
READS = ("body", "name", "plain", "finish", "cname", "inits", "stats",
         "as_is", "to_script")

# Every crossing invoker makes, guarded or not, spelt once per arity,
# kind of slot, side and result: _CROSSING, one per entry of a chain, in
# the function _FORM puts around them.  A crossing runs the body when
# guard holds (always, for a plain invoker): host errors become
# HostException, and a runaway recursion through the bridge is a stack
# overflow, as it is in a script; the form hands a call that no guard
# takes to general.  The second tier writes the crossings of a script's
# method chain in place at a call site with the same text (see inplace).
# Every name a crossing reads carries the prefix {q}, its entry's, and
# every temporary the prefix {p}: in a form, "e<i>_" and none; in place,
# the site's prefix before both, with the reads bound on the unit's
# entry from the dispatcher's, and the value going to the site's
# temporary.
_CROSSING = """if {guard}:
    {first}
    try:
        {p}r = {q}body({call})
    except BridgeScriptError:
        raise
    except RecursionError:
        raise ScriptRuntimeError("stack overflow") from None
    except Exception as e:  # host code
        raise HostException(f"{{{q}name}}: {{e}}") from e
    {done}"""

_FORM = """def form(general, {reads}):
    def invoke({params}):
{crossings}
        return general({params})
    return invoke
"""


def crossing(spelling, done: str, p: str = "", values=None, sure=(),
             tests=(), entry: int = 0) -> str:
    """The text of the crossing of a chain's entry-th entry, of spelling,
    one of _form's arguments, ending in done, a statement over {v}, the
    crossing's value: the host result, for a script the new object's
    proxy, a method's result as a script value, or a void method's
    finished result, which is None unless validate_invokes checks it.  A
    form's arguments are args[i], and its guard tests their count; the
    second tier passes p, values, the texts of exactly the arguments the
    crossing takes, and sure, the indices of those whose class test
    cannot fail (a table's, for a class slot), and tests, conditions its
    guard tests first."""
    classes, n, static, new, result, void, script = spelling
    lead = script and not (static or new)  # the receiver is args[0]
    q = f"{p}e{entry}_"
    tests = list(tests)
    if values is None:
        if classes is not None:
            tests.append(f"len(args) == {len(classes)}")
        values = [f"args[{i}]" for i in range(n if classes is None
                                              else len(classes))]
    else:
        values = list(values)
    for i, is_class in enumerate(classes or ()):
        v, k = values[i], f"{q}k{i}"
        if not is_class:
            if i not in sure:
                tests.append(f"{v}.__class__ is {k}")
        elif script:  # a proxy of a host object of that very class
            h = values[i] = f"{p}receiver" if lead and not i else f"{p}h{i}"
            tests.append(("" if i in sure else f"{v}.__class__ is Table and ")
                         + f"({h} := {v}.entries.get('__hostref')).__class__ "
                         f"is HostObject and {h}.class_name == {k}")
        else:
            tests.append(f"{v}.__class__ is HostObject and "
                         f"{v}.class_name == {k}")
    if not (static or lead):
        values.insert(0, f"{p}receiver")
    result = result.format(p=p, q=q)
    if script and new:
        result = f"{q}to_script({result})"
    elif script and not void:
        result = (f"{p}r if {p}r.__class__ is {q}as_is else "
                  f"{q}to_script({result})")
    return _CROSSING.format(
        p=p, q=q, guard=" and ".join(tests) or "True",
        call=", ".join(values),
        first=f"{p}receiver = HostObject({q}cname, dict({q}inits))" if new
        else f"{q}stats.dispatches += 1" if script else "pass",
        done=done.format(v=result))


@functools.cache  # one per spelling, shared by every registry
def _form(*spelling):
    """The form of invoker's chains of one spelling, its entries' in
    order, each of them: classes, holding per slot of a lone crossing
    whether it is a class slot, or None for a plain invoker; n, its
    arguments; static and new, the method's kind; result, _finish's
    text; void, whether a script's method crossing returns no results;
    script, the side.  A chain of lone crossings is compiled as
    "<lone>", which tools and tests look for, a plain invoker as
    "<invoke>"."""
    reads, crossings = [], []
    for i, (classes, _, _, new, _, void, script) in enumerate(spelling):
        reads += [f"e{i}_{x}" for x in READS] + [
            f"e{i}_k{j}" for j in range(len(classes or ()))]
        crossings.append(crossing(spelling[i], (
            "return [{v}]" if script and not (new or void)
            else "{v}; return _EMPTY" if script and void else "return {v}"),
            entry=i))
    source = _FORM.format(
        reads=", ".join(reads), params="args" if script else "receiver, args",
        crossings="\n".join(" " * 8 + line for text in crossings
                            for line in text.split("\n")))
    env = {"BridgeScriptError": BridgeScriptError, "HostObject": HostObject,
           "HostException": HostException, "Table": Table, "_EMPTY": _EMPTY,
           "ScriptRuntimeError": ScriptRuntimeError}
    exec(compile(source, "<invoke>" if classes is None else "<lone>",
                 "exec"), env)
    return env["form"]


def _no_body(*args):
    """The body of a constructor declared without one: no host code."""


def lone_slots(m):
    """The slots of the overload m if it is lone, if each is FLOAT, TEXT,
    BOOLEAN or a class, else None: per slot the class an argument must
    have and, for a class slot, the class name of that host object.  A
    call whose arguments fit them, one per slot, has m for its verdict
    among any overloads beside it, and the arguments as they are: they
    fit m's slots exactly, so m alone scores the most."""
    slots = []
    for tag in m.params:
        if tag.__class__ is ClassTag:
            slots.append((HostObject, tag.name))
        elif tag in AS_IS:
            slots.append((AS_IS[tag], None))
        else:
            return None
    return slots


def normalize(tag, v):
    """v as a slot of tag holds it: an int in a float slot becomes a
    float.  An int beyond the float range stays an int, which the slot
    then refuses."""
    if tag is FLOAT and type(v) is int and abs(v) <= _FLOAT_MAX:
        return float(v)
    return v


def index_error(index, length: int) -> IndexOutOfBounds:
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

