"""Inbound bridge: script tables stand in for host interfaces and classes.

hostExport(t, "demo.ActionListener") produces a wrapper the host side can
call methods on.  Host calls of one method on every wrapper of one
target type share one entry, built on the first call and kept in a
plain dict (see _entry).  The entry chooses the overload from the host
arguments through a registry.call_site over score_host, which returns
the chosen overload's return handling.  Whether an overload is lone
comes from registry.lone_slots alone; for a lone overload of no slot
or one, the entry tests inline whether the call's argument, if any,
fits its slot as it is, and such a call skips the site.  A wider lone
overload is chosen through the site, as any other.  The entry
looks the method up in the table on every call, index fallback
included, so a script can add or replace methods after exporting and
the host sees the change on the next call.
It calls the function with the table as self and returns the single
result as the chosen overload's return type: nothing for void, a result
of the tag's AS_IS class as it is, any other through the tag's store.
A script closure that takes exactly self and the host arguments, when
there is at most one, is entered positionally (proto.body(globals,
upvals, t[, arg])), with no argument list; any other call gets a list,
which a closure pads with nil or cuts to its parameters.  The errors
come in one order: NoSuchMember when the type declares no such method
(no entry is built), then UnimplementedMethod or the fall-through
below, then NotCallable, then the site's NoMatch.

Exporting against a class additionally creates a backing instance with
the zero-argument constructor, always of the target class.  Methods the
table does not define fall through to that instance, straight through
the registry's entry for (class, method), as a host call on the
instance would.  The table gains a "__base" entry holding the
instance's proxy so scripts can call the original behaviour explicitly.
The backing write bypasses the newindex fallback: "__base" is bridge
plumbing, not a script-level store.

Wrappers (registry.ScriptWrapper) are cached per (table, target type),
so converting the same table twice yields the same host identity.  The
cache holds wrappers weakly, keyed by the table's id(): a wrapper holds
its table, so no other table has that id while the entry lives.  A
table exported again after its wrapper was collected gets a new wrapper
over the instance its "__base" already holds.
"""

import weakref

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
    type_name,
)
from .registry import (
    AS_IS,
    VOID,
    HostObject,
    ScriptWrapper,
    call_site,
    host_shape,
    lone_slots,
)


class InboundBridge:
    def __init__(self, registry):
        self.registry = registry
        self.converter = None  # wired by convert.Converter
        self._wrappers = weakref.WeakValueDictionary()
        self.entries: dict = {}  # see _entry

    def host_export(self, t, target_type: str) -> ScriptWrapper:
        if t.__class__ is not Table:
            raise TypeMismatch(
                f"hostExport expects a table, got {type_name(t)}")
        if "__hostref" in t.entries:
            raise ProxyNotExportable(
                "host proxies cannot be exported back to the host")
        flat = self.registry.lookup_class(target_type)
        key = (id(t), target_type)
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

    def _entry(self, key):
        """entries[key], built and stored: entry(w, host args) for every
        wrapper exported as type, for the key (type, name), holding the
        call site of method name, which records per overload None for
        void, else the class of results that pass as they are and the
        store of any other."""
        reg, conv = self.registry, self.converter
        target_type, name = key
        refusal = (f"result of {target_type}.{name} does not convert "
                   f"to the declared return type")
        cands = reg.methods(target_type, name)  # NoSuchMember

        def record(m):
            if m.returns is VOID:
                return None
            return AS_IS.get(m.returns), conv.storer(
                m.returns, refusal, ReturnTypeMismatch)
        records = {m: record(m) for m in cands}
        select = call_site(cands, target_type, reg.score_host, host_shape,
                           records.__getitem__)
        # a lone overload of no slot or one is the verdict for a call
        # whose argument fits its slot (lone_slots): such calls skip the
        # call site
        slots = lone_slots(cands[0]) if len(cands) == 1 else None
        lone_n = len(slots) if slots is not None and len(slots) < 2 else -1
        lone_class, lone_name = slots[0] if lone_n == 1 else (None, None)
        lone = records[cands[0]]
        # a class target's backing is of that class: fall through to its
        # own entry
        fall = (reg.entries.get(key) or reg._entry(key)) \
            if reg.lookup_class(target_type).kind == "class" else None
        to_script = conv.to_script

        def entry(w, host_args: list):
            t = w.script_object
            fn = t.entries.get(name, NIL)  # live: every call looks again
            if fn is NIL and t.index_handler is not None:
                fn = t.index_handler(t, name)
            if fn is NIL:
                if fall is None:
                    raise UnimplementedMethod(
                        f"the table exported as {target_type!r} does not "
                        f"define {name!r}")
                return fall(w.backing, host_args)
            cls = fn.__class__
            if cls is not Closure and cls is not NativeFunction:
                raise NotCallable(
                    f"{name!r} on the table exported as {target_type!r} "
                    f"is a {type_name(fn)}, not a function")
            # the overload fixes the return tag; choose it before the call
            n = len(host_args)
            if n == lone_n and (not n or (
                    host_args[0].__class__ is lone_class and (
                        lone_name is None
                        or host_args[0].class_name == lone_name))):
                result = lone
            else:
                result, host_args = select(host_args)
            # the commonest calls, nullary and a listener given its event,
            # reach a closure that takes exactly self and them positionally
            if n < 2 and cls is Closure and fn.proto.nparams == n + 1:
                if n:
                    vals = fn.proto.body(fn.globals, fn.upvals, t,
                                         to_script(host_args[0]))
                else:
                    vals = fn.proto.body(fn.globals, fn.upvals, t)
            else:  # padded or cut to its parameters, or native
                vals = call_value(fn, [t, *map(to_script, host_args)])
            if result is None:
                return None
            r = vals[0] if vals else NIL
            as_is, store = result
            return r if r.__class__ is as_is else store(r)
        self.entries[key] = entry
        return entry


def _base_instance(t: Table, target_type: str):
    """The target_type instance t's "__base" proxy stands for, if any: a
    table exported again after its wrapper was collected keeps it."""
    base = t.entries.get("__base")
    if base.__class__ is Table:
        ref = base.entries.get("__hostref")
        if ref.__class__ is HostObject and ref.class_name == target_type:
            return ref
    return None
