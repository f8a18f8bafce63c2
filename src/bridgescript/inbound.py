"""Inbound bridge: script tables stand in for host interfaces and classes.

hostExport(t, "demo.ActionListener") produces a wrapper the host side can
call methods on.  Each invocation looks the method up in the table at
call time, so a script can add or replace methods after exporting and the
host sees the change.  The registry's call site for the method picks the
overload from the host arguments; the wrapper calls the function with
the table as self and converts the single result to its return type.

Exporting against a class additionally creates a backing instance with
the zero-argument constructor.  Methods the table does not define fall
through to that instance, and the table gains a "__base" entry holding
its proxy so scripts can call the original behaviour explicitly.  The
backing write bypasses the newindex fallback: "__base" is bridge
plumbing, not a script-level store.

Wrappers (registry.ScriptWrapper) are cached per (table, target type),
so converting the same table twice yields the same host identity.  The
cache holds wrappers weakly; a table exported again after its wrapper
was collected gets a new wrapper over the instance its "__base" already
holds.
"""

import weakref

from .convert import Incompatible
from .errors import (
    NoDefaultConstructor,
    NotCallable,
    ProxyNotExportable,
    ReturnTypeMismatch,
    TypeMismatch,
    UnimplementedMethod,
)
from .objects import (
    NIL,
    Closure,
    NativeFunction,
    Table,
    call_value,
    raw_set,
    table_get,
    type_name,
)
from .registry import VOID, HostObject, ScriptWrapper


class InboundBridge:
    def __init__(self, registry):
        self.registry = registry
        self.converter = None  # wired by the interpreter
        self._wrappers = weakref.WeakValueDictionary()

    def host_export(self, t, target_type: str) -> ScriptWrapper:
        if t.__class__ is not Table:
            raise TypeMismatch(
                f"hostExport expects a table, got {type_name(t)}")
        if "__hostref" in t.entries:
            raise ProxyNotExportable(
                "host proxies cannot be exported back to the host")
        flat = self.registry.lookup_class(target_type)
        key = (t.uid, target_type)
        w = self._wrappers.get(key)
        if w is not None:
            return w
        backing = None
        if flat.kind == "class":
            backing = _base_instance(t, target_type)
            if backing is None:
                if not self.registry.has_default_constructor(target_type):
                    raise NoDefaultConstructor(
                        f"{target_type!r} has no zero-argument constructor "
                        f"to back the table")
                backing = self.registry.instantiate(target_type, [])
                raw_set(t, "__base", self.converter.to_script(backing))
        w = ScriptWrapper(self, target_type, t, backing)
        self._wrappers[key] = w
        return w

    def auto_wrap(self, t: Table, target_type: str) -> ScriptWrapper:
        # conversion-time path; shares the cache so identities round-trip
        return self.host_export(t, target_type)

    def wrapper_invoke(self, w: ScriptWrapper, name: str, host_args: list):
        select = self.registry.site(w.target_type, name)  # NoSuchMember
        fn = table_get(w.script_object, name)  # live: every call looks again
        if fn is NIL:
            if w.backing is None:
                raise UnimplementedMethod(
                    f"the table exported as {w.target_type!r} does not "
                    f"define {name!r}")
            return self.registry.call_method(w.backing, name, host_args)
        cls = fn.__class__
        if cls is not Closure and cls is not NativeFunction:
            raise NotCallable(
                f"{name!r} on the table exported as {w.target_type!r} "
                f"is a {type_name(fn)}, not a function")
        # the overload fixes the return tag; choose it before the call
        m, host_args = select(host_args)
        conv = self.converter
        args = [w.script_object]
        for h in host_args:
            args.append(conv.to_script(h))
        vals = call_value(fn, args)
        if m.returns is VOID:
            return None
        result = vals[0] if vals else NIL
        r = conv.to_host(result, m.returns)
        if r.__class__ is Incompatible:
            raise ReturnTypeMismatch(
                f"result of {w.target_type}.{name} does not convert "
                f"to the declared return type: {r.reason}")
        return r.value


def _base_instance(t: Table, target_type: str):
    """The target_type instance t's "__base" proxy stands for, if any: a
    table exported again after its wrapper was collected keeps it."""
    base = t.entries.get("__base")
    if base.__class__ is Table:
        ref = base.entries.get("__hostref")
        if ref.__class__ is HostObject and ref.class_name == target_type:
            return ref
    return None
