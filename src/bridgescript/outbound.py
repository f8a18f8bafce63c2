"""Outbound bridge: host objects appear in scripts as proxy tables.

A proxy is an ordinary table whose "__hostref" entry holds the host
reference; everything else about it is supplied lazily by fallbacks.
Reading an absent key fires the index fallback, which resolves fields
live against the host and, for methods, builds a dispatcher closure over
the full candidate list.  Dispatch is therefore two steps: the fallback
returns the dispatcher, the call invokes it.  On the way out of each
invocation the dispatcher stores itself into the proxy under the method
name, so later reads find it directly and the fallback never fires again
for that name on that proxy.

Field reads are never cached (they must see current host state), and the
newindex fallback writes fields through to the host immediately.  Method
names reject assignment, as does "__hostref" itself.

Arrays expose 1-based numeric indexing and a read-only "length".  Class
proxies expose static fields and static methods the same way instance
proxies expose instance members.
"""

from .errors import (
    BridgeScriptError,
    HostException,
    InterfaceNotInstantiable,
    NoMatch,
    NoSuchMember,
    ReceiverMismatch,
    ReservedField,
    TypeMismatch,
)
from .convert import Incompatible
from .objects import NativeFunction, Table
from .registry import (
    VOID,
    HostArray,
    HostClassRef,
    HostObject,
    resolve_overload,
)

_EMPTY: list = []


class DispatchStats:
    """Counters used by tests to pin down when fallbacks fire."""

    __slots__ = ("fallback_fires", "dispatches")

    def __init__(self):
        self.fallback_fires: dict = {}  # (proxy uid, key) -> count
        self.dispatches = 0

    def fires(self, proxy: Table, key) -> int:
        return self.fallback_fires.get((proxy.uid, key), 0)


class OutboundBridge:
    def __init__(self, registry):
        self.registry = registry
        self.converter = None  # wired by the interpreter
        self.stats = DispatchStats()
        self._index_handler = NativeFunction(self._on_index, "proxy_index")
        self._newindex_handler = NativeFunction(
            self._on_newindex, "proxy_newindex")

    def build_proxy(self, ref) -> Table:
        t = Table()
        t.entries["__hostref"] = ref
        t.index_handler = self._index_handler
        t.newindex_handler = self._newindex_handler
        return t

    # ------------------------------------------------------------ built-ins

    def host_new_instance(self, name: str, script_args: list) -> Table:
        flat = self.registry.lookup_class(name)
        if flat.kind != "class":
            raise InterfaceNotInstantiable(
                f"{name!r} is an interface and cannot be instantiated")
        ctor, args = resolve_overload(
            flat.constructors, script_args, self.converter.to_host, name)
        return self.converter.to_script(
            self.registry.instantiate(name, args, ctor=ctor))

    def host_bind_class(self, name: str) -> Table:
        return self.converter.class_proxy(name)

    # ------------------------------------------------------------ fallbacks

    def _on_index(self, args: list) -> list:
        proxy, key = args
        return [self.proxy_index(proxy, key)]

    def _on_newindex(self, args: list) -> list:
        proxy, key, value = args
        self.proxy_newindex(proxy, key, value)
        return _EMPTY

    def proxy_index(self, proxy: Table, key):
        stats = self.stats.fallback_fires
        sk = (proxy.uid, key)
        stats[sk] = stats.get(sk, 0) + 1
        ref = proxy.entries["__hostref"]
        cls = ref.__class__
        if cls is HostObject:
            return self._object_index(proxy, ref, key)
        if cls is HostArray:
            return self._array_index(ref, key)
        return self._class_index(proxy, ref, key)

    def _object_index(self, proxy: Table, obj: HostObject, key):
        if key.__class__ is not str:
            raise NoSuchMember(obj.class_name, str(key))
        flat = self.registry.lookup_class(obj.class_name)
        spec = flat.fields.get(key)
        if spec is not None and not spec.static:
            return self.converter.to_script(obj.fields[key])
        cands = flat.methods.get(key)
        if cands is not None and not cands[0].static:
            return self._make_dispatcher(
                proxy, obj.class_name, key, cands, static=False)
        raise NoSuchMember(obj.class_name, key)

    def _array_index(self, arr: HostArray, key):
        if key.__class__ is float:
            if key.is_integer():
                return self.converter.to_script(
                    self.registry.array_get(arr, int(key) - 1))
            raise NoSuchMember("array", str(key))
        if key == "length":
            return float(len(arr.elements))
        raise NoSuchMember("array", str(key))

    def _class_index(self, proxy: Table, ref: HostClassRef, key):
        if key.__class__ is not str:
            raise NoSuchMember(ref.name, str(key))
        flat = self.registry.lookup_class(ref.name)
        spec = flat.fields.get(key)
        if spec is not None and spec.static:
            return self.converter.to_script(
                self.registry.get_field(ref.name, key))
        cands = flat.methods.get(key)
        if cands is not None and cands[0].static:
            return self._make_dispatcher(
                proxy, ref.name, key, cands, static=True)
        raise NoSuchMember(ref.name, key)

    # ----------------------------------------------------------- dispatcher

    def _make_dispatcher(self, proxy, owner, name, cands, static):
        conv = self.converter
        reg = self.registry
        stats = self.stats
        to_host = conv.to_host
        entries = proxy.entries
        single = cands[0] if len(cands) == 1 else None
        # nullary void methods skip conversion and result handling whole
        fast_body = None
        if (single is not None and not single.params
                and single.returns is VOID and single.body is not None
                and not reg.validate_invokes):
            fast_body = single.body
        nf = NativeFunction(None, name)

        def dispatch(args: list) -> list:
            stats.dispatches += 1
            if static:
                receiver = None
                nargs = len(args)
            else:
                if not args or args[0].__class__ is not Table:
                    raise ReceiverMismatch(
                        f"method {name!r} needs a host receiver; "
                        f"call it with ':'")
                ref = args[0].entries.get("__hostref")
                if ref is None or ref.__class__ is not HostObject:
                    raise ReceiverMismatch(
                        f"method {name!r} needs a host receiver; "
                        f"call it with ':'")
                if ref.class_name != owner \
                        and not reg.is_subclass(ref.class_name, owner):
                    raise ReceiverMismatch(
                        f"method {name!r} of {owner!r} called on "
                        f"a {ref.class_name!r}")
                receiver = ref
                nargs = len(args) - 1
            if fast_body is not None:
                if nargs:
                    raise NoMatch(f"{owner}.{name} takes no arguments")
                try:
                    if static:
                        fast_body()
                    else:
                        fast_body(receiver)
                except BridgeScriptError:
                    raise
                except Exception as e:  # noqa: BLE001 - host code
                    raise HostException(f"{name}: {e}") from e
                entries[name] = nf
                return _EMPTY
            m, conv_args = resolve_overload(
                cands, args if static else args[1:], to_host, owner)
            result = reg.invoke(m, receiver, conv_args)
            entries[name] = nf
            if m.returns is VOID:
                return _EMPTY
            return [conv.to_script(result)]

        nf.fn = dispatch
        return nf

    # ---------------------------------------------------------------- writes

    def proxy_newindex(self, proxy: Table, key, value) -> None:
        if key == "__hostref":
            raise ReservedField("'__hostref' is reserved")
        conv = self.converter
        ref = proxy.entries["__hostref"]
        cls = ref.__class__
        if cls is HostObject:
            if key.__class__ is not str:
                raise NoSuchMember(ref.class_name, str(key))
            flat = self.registry.lookup_class(ref.class_name)
            spec = flat.fields.get(key)
            if spec is not None and not spec.static:
                r = conv.to_host(value, spec.tag)
                if r.__class__ is Incompatible:
                    raise TypeMismatch(
                        f"cannot store into {ref.class_name}.{key}: "
                        f"{r.reason}")
                self.registry.set_field(ref, key, r.value)
                return
            if key in flat.methods:
                raise TypeMismatch(
                    f"{key!r} is a method of {ref.class_name!r} "
                    f"and cannot be assigned")
            raise NoSuchMember(ref.class_name, key)
        if cls is HostArray:
            if key.__class__ is float and key.is_integer():
                r = conv.to_host(value, ref.elem_tag)
                if r.__class__ is Incompatible:
                    raise TypeMismatch(
                        f"cannot store into the array: {r.reason}")
                self.registry.array_set(ref, int(key) - 1, r.value)
                return
            if key == "length":
                raise TypeMismatch("array length is read-only")
            raise NoSuchMember("array", str(key))
        # class proxy: statics only
        if key.__class__ is not str:
            raise NoSuchMember(ref.name, str(key))
        flat = self.registry.lookup_class(ref.name)
        spec = flat.fields.get(key)
        if spec is not None and spec.static:
            r = conv.to_host(value, spec.tag)
            if r.__class__ is Incompatible:
                raise TypeMismatch(
                    f"cannot store into {ref.name}.{key}: {r.reason}")
            self.registry.set_field(ref.name, key, r.value)
            return
        if key in flat.methods and flat.methods[key][0].static:
            raise TypeMismatch(
                f"{key!r} is a static method of {ref.name!r} "
                f"and cannot be assigned")
        raise NoSuchMember(ref.name, key)
