"""Conversion between script and host values.

to_host scores each conversion: 2 for an exact match, 1 for a coercion
(integral number into an integer slot, nil into any reference slot, a
proxy of a strict subclass, a plain table wrapped as an interface or
class).  Everything else is Incompatible, which is a result rather than
an error.  to_host is the script-value front end of the overload rule,
registry.resolve_overload.  A plain table is wrapped only when its
converted value is read, so scoring overloads wraps nothing.  Tags come
checked (by freeze, or array_new): a plain table fits every interface
slot, and a class slot whose class has a zero-argument constructor.

to_script goes the other way; a registry.ScriptWrapper becomes the
table it wraps, and a value that is no host value is a TypeMismatch.
A host object or array gets one proxy table per interpreter while that
proxy lives.  The value itself remembers it: its proxies slot maps each
converter's token, an object() made with the converter, to a weak
reference to the proxy, with no callback.  So a dropped proxy is
collected, a later sight builds a fresh one, and two interpreters over
one registry each get their own proxy of a shared value.  The token,
not the converter, is the key, so a value the registry holds keeps no
dead interpreter alive, and an interpreter's first sight of a value
drops the entries of proxies that are gone, so the slot holds at most
one entry more than the value has live proxies.
"""

import weakref
from functools import partial

from .errors import TypeMismatch
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
    HostObject,
    Incompatible,
    InterfaceTag,
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
    def __init__(self, registry, outbound, inbound):
        """The converter between registry and both bridges, wired into
        each bridge as its converter."""
        self.registry = registry
        # host reference -> fresh proxy Table
        self.proxy_factory = outbound.build_proxy
        # class name -> its fresh class proxy Table
        self.class_proxy_factory = outbound.build_class_proxy
        # (Table, type name) -> ScriptWrapper, through the export cache
        self.auto_wrap = inbound.host_export
        outbound.converter = inbound.converter = self
        # this converter's key in a host value's proxies slot
        self._token = object()
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
                    if self.registry.has_default_constructor(tag.name):
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
                return _Wrapping(partial(self.auto_wrap, v, tag.name))
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

    def storer(self, tag, refusal: str, error=TypeMismatch):
        """store(v) -> what a slot of tag holds for the script value v, as
        to_host converts it (the primitive cases inline); error(refusal:
        reason) when v does not convert."""
        to_host = self.to_host
        as_is = AS_IS.get(tag)

        def store(v):
            if v.__class__ is as_is:
                return v
            if tag is INTEGER and v.__class__ is float and v.is_integer():
                return int(v)
            r = to_host(v, tag)
            if r.__class__ is Incompatible:
                raise error(f"{refusal}: {r.reason}")
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
            seen = h.proxies
            if seen is None:
                h.proxies = seen = {}
            else:
                r = seen.get(self._token)
                if r is None:
                    # this interpreter's first sight: forget proxies that
                    # are gone, so interpreters that come and go leave
                    # nothing on a value the registry keeps
                    for k in [k for k, w in seen.items() if w() is None]:
                        del seen[k]
                else:
                    proxy = r()
                    if proxy is not None:
                        return proxy
            proxy = self.proxy_factory(h)
            seen[self._token] = weakref.ref(proxy)
            return proxy
        if cls is ScriptWrapper:
            return h.script_object
        raise TypeMismatch(f"not a host value: {h!r}")

    def class_proxy(self, name: str) -> Table:
        proxy = self._class_proxies.get(name)
        if proxy is None:
            self.registry.lookup_class(name)  # raises ClassNotFound
            proxy = self.class_proxy_factory(name)
            self._class_proxies[name] = proxy
        return proxy


def shape(v):
    """v's row in to_host's rule: integral number, fractional number,
    string, boolean, nil, host class name, array element tag or plain
    table.  Values of one shape get the same score in every slot, and
    to_host either keeps every one of them or converts every one.  Class
    proxies fit no slot and share the shape None; other values, closures
    say, fit none either."""
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

