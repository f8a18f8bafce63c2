"""Conversion between script and host values.

to_host scores each conversion: 2 for an exact match, 1 for a coercion
(integral number into an integer slot, nil into any reference slot, a
proxy of a strict subclass, a plain table wrapped as an interface or
class).  Everything else is Incompatible, which is a result rather than
an error.  to_host is the script-value front end of the overload rule,
registry.resolve_overload.  A plain table is wrapped only when its
converted value is read, so scoring overloads wraps nothing.

to_script goes the other way; a registry.ScriptWrapper becomes the
table it wraps.  This module also owns the proxy identity cache: one
proxy table per live host object, held weakly so unused proxies can be
collected.
"""

import weakref
from functools import partial

from .errors import ClassNotFound, NotFrozen, TypeMismatch
from .objects import NIL, Table, type_name
from .registry import (
    AS_IS,
    BOOLEAN,
    FLOAT,
    INTEGER,
    INTEGRAL,
    TEXT,
    ArrayTag,
    ClassTag,
    Converted,
    HostArray,
    HostClassRef,
    HostObject,
    Incompatible,
    InterfaceTag,
    PrimTag,
    ScriptWrapper,
)


class _Wrapping(Converted):
    """A plain table's conversion to an interface or class slot.  Reading
    value wraps it, which caches a wrapper and, for a class, creates a
    backing instance and sets "__base"."""

    __slots__ = ("wrap",)

    def __init__(self, wrap):
        self.score = 1
        self.wrap = wrap  # () -> ScriptWrapper

    @property
    def value(self):
        return self.wrap()


class Converter:
    def __init__(self, registry, proxy_factory, auto_wrap):
        self.registry = registry
        self.proxy_factory = proxy_factory  # host reference -> fresh proxy Table
        self.auto_wrap = auto_wrap          # (Table, type name) -> ScriptWrapper
        self._proxies = weakref.WeakValueDictionary()  # host uid -> proxy Table
        self._class_proxies: dict[str, Table] = {}

    # ------------------------------------------------------- script to host

    def to_host(self, v, tag):
        if tag is FLOAT:
            if v.__class__ is float:
                return Converted(v, 2)
            return Incompatible(f"expected a number, got {type_name(v)}")
        if tag is INTEGER:
            if v.__class__ is float:
                if v.is_integer():
                    return Converted(int(v), 1)
                return Incompatible(f"{v!r} has a fractional part")
            return Incompatible(f"expected a number, got {type_name(v)}")
        if tag is TEXT:
            if v.__class__ is str:
                return Converted(v, 2)
            return Incompatible(f"expected a string, got {type_name(v)}")
        if tag is BOOLEAN:
            if v.__class__ is bool:
                return Converted(v, 2)
            return Incompatible(f"expected a boolean, got {type_name(v)}")
        if isinstance(tag, ClassTag):
            if v is NIL:
                return Converted(None, 1)
            if v.__class__ is Table:
                ref = v.entries.get("__hostref")
                if ref is None:
                    if self._wrappable(tag.name, "class"):
                        return _Wrapping(partial(self.auto_wrap, v, tag.name))
                    return Incompatible(
                        f"{tag.name!r} cannot back a plain table")
                if ref.__class__ is HostObject:
                    if ref.class_name == tag.name:
                        return Converted(ref, 2)
                    if self.registry.is_subclass(ref.class_name, tag.name):
                        return Converted(ref, 1)
                    return Incompatible(
                        f"{ref.class_name!r} is not a {tag.name!r}")
                return Incompatible(f"proxy of {ref!r} is not a {tag.name!r}")
            return Incompatible(
                f"expected a {tag.name!r}, got {type_name(v)}")
        if isinstance(tag, InterfaceTag):
            if v is NIL:
                return Converted(None, 1)
            if v.__class__ is Table and "__hostref" not in v.entries:
                if self._wrappable(tag.name, "interface"):
                    return _Wrapping(partial(self.auto_wrap, v, tag.name))
                return Incompatible(f"{tag.name!r} is not a known interface")
            return Incompatible(
                f"expected a {tag.name!r} implementation, got {type_name(v)}")
        if isinstance(tag, ArrayTag):
            if v is NIL:
                return Converted(None, 1)
            if v.__class__ is Table:
                ref = v.entries.get("__hostref")
                if ref is not None and ref.__class__ is HostArray \
                        and ref.elem_tag == tag.elem:
                    return Converted(ref, 2)
            return Incompatible(
                f"expected an array of {tag.elem!r}, got {type_name(v)}")
        return Incompatible(f"no value converts to {tag!r}")

    def _wrappable(self, name: str, want_kind: str) -> bool:
        try:
            flat = self.registry.lookup_class(name)
        except (ClassNotFound, NotFrozen):
            return False
        if flat.kind != want_kind:
            return False
        if want_kind == "class":
            return self.registry.has_default_constructor(name)
        return True

    def converter_for(self, v, tag):
        """What to_host does to every value of v's shape (see shape) in a
        slot of tag that accepts v, as a function of the value; None when
        such values pass as they are."""
        if tag is INTEGER:
            return int
        if tag.__class__ is PrimTag:
            return None
        if v is NIL:
            return _to_none
        if "__hostref" in v.entries:
            return _hostref
        wrap = self.auto_wrap
        name = tag.name
        return lambda t: wrap(t, name)

    def storer(self, tag, where: str):
        """store(v) -> what a slot of tag holds for the script value v, as
        to_host converts it (the primitive cases inline); TypeMismatch
        naming where when v does not convert."""
        to_host = self.to_host
        as_is = AS_IS.get(tag)

        def store(v):
            if v.__class__ is as_is:
                return v
            if tag is INTEGER and v.__class__ is float and v.is_integer():
                return int(v)
            r = to_host(v, tag)
            if r.__class__ is Incompatible:
                raise TypeMismatch(f"cannot store into {where}: {r.reason}")
            return r.value
        return store

    # ------------------------------------------------------- host to script

    def to_script(self, h):
        if h is None:
            return NIL
        cls = h.__class__
        if cls is float or cls is str or cls is bool:
            return h
        if cls is int:
            try:
                return float(h)
            except OverflowError:
                raise TypeMismatch(
                    "host integer too large for a script number") from None
        if cls is HostObject or cls is HostArray:
            proxy = self._proxies.get(h.uid)
            if proxy is None:
                proxy = self.proxy_factory(h)
                self._proxies[h.uid] = proxy
            return proxy
        if cls is ScriptWrapper:
            return h.script_object
        if cls is HostClassRef:
            return self.class_proxy(h.name)
        raise TypeError(f"not a host value: {h!r}")

    def class_proxy(self, name: str) -> Table:
        proxy = self._class_proxies.get(name)
        if proxy is None:
            self.registry.lookup_class(name)  # raises ClassNotFound
            proxy = self.proxy_factory(HostClassRef(name))
            self._class_proxies[name] = proxy
        return proxy


def shape(v):
    """v's row in to_host's rule: integral number, fractional number,
    string, boolean, nil, host class name, array element tag or plain
    table.  Values of one shape get the same score in every slot, and the
    same converter_for.  Class proxies fit no slot and share the shape
    None; other values, closures say, fit none either."""
    cls = v.__class__
    if cls is float:
        return INTEGRAL if v.is_integer() else float
    if cls is Table:
        ref = v.entries.get("__hostref")
        if ref is None:
            return Table
        if ref.__class__ is HostObject:
            return ref.class_name
        if ref.__class__ is HostArray:
            return ref.elem_tag
        return None
    return cls


def _to_none(v):
    return None


def _hostref(v):
    return v.entries["__hostref"]
