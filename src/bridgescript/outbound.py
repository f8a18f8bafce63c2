"""Outbound bridge: host objects appear in scripts as proxy tables.

A proxy is an ordinary table whose "__hostref" entry holds the host
reference; everything else about it is supplied lazily by fallbacks.

Member tables.  The index and newindex fallbacks find a key in a member
table: one for the instance members and one for the static members of
each class, shared by every proxy of that class.  A member is built on
its first use after freeze(), once per (class, member).  A field gets a
bound getter and a bound setter, the setter with its tag's conversion
and check fixed when it is built; a method gets one call site.  Host
arrays get one element setter per element tag.  Getters read the host on
every access: field values and array elements are never cached, so
scripts always see current host state.  A key that names no member is
refused and not remembered.

Dispatch.  Each (class, method) has one dispatcher, shared by every
proxy of the class: it checks the receiver, chooses through the call
site, invokes and converts the result.  The index fallback returns a
one-shot function over it that, once a call succeeds, stores the shared
dispatcher into the proxy it was read from under the method name.  Later
reads find it there, so the fallback never fires again for that name on
that proxy.  The dispatcher refers to no proxy, so a proxy holds nothing
that refers back to it.  Method identity follows call history: until
a proxy has called a method, each read of it is a new one-shot, and
p.move == p.move is false; after the first call both reads give the
shared dispatcher.  A read alone stores nothing.

Call sites.  Each method, and each class's constructors, choose through
one registry.call_site over to_host, keyed by convert.shape (integral
number, fractional number, string, boolean, nil, host class name, array
element tag, plain table); a method whose one overload is nullary skips
it.  The registry invoker of the chosen overload runs the body, wraps
host errors as HostException and checks the result against the return
tag, which goes back through to_script.  NoMatch and Ambiguous are never
cached; a plain table is wrapped on every call.  A static method called
with ':' is told to call it with '.'.

Method names reject assignment, as does "__hostref" itself.  Arrays
expose 1-based numeric indexing, and their bounds errors name the index
the script used; they have a read-only "length".  Class proxies
expose static fields and static methods the same way instance proxies
expose instance members.
"""

import weakref

from .errors import (
    NoMatch,
    NoSuchMember,
    ReceiverMismatch,
    ReservedField,
    TypeMismatch,
)
from .convert import shape
from .objects import NativeFunction, Table, render
from .registry import (
    AS_IS,
    VOID,
    HostArray,
    HostObject,
    call_site,
    index_error,
)

_EMPTY: list = []
# The fallback_fires key of collected proxies' fires; no proxy has uid 0.
RETIRED = (0, None)
# The fallback_fires key of every element read of an array proxy, so
# that an array's reads make one entry however many indices they use.
ELEMENTS = "[element]"


class DispatchStats:
    """Counters used by tests to pin down when fallbacks fire.  When a
    proxy is collected its fire counts move into one RETIRED entry, so
    the entries are bounded by the live proxies and the counts still
    sum to every fire."""

    __slots__ = ("fallback_fires", "dispatches", "_watched")

    def __init__(self):
        self.fallback_fires: dict = {}  # (proxy uid, key) -> count
        self.dispatches = 0
        self._watched: dict = {}  # proxy uid -> (weak ref, keys fired)

    def fires(self, proxy: Table, key) -> int:
        return self.fallback_fires.get((proxy.uid, key), 0)

    def watch(self, proxy: Table, key) -> None:
        """Note a first fire of key on proxy, to forget with the proxy."""
        uid = proxy.uid
        watched = self._watched.get(uid)
        if watched is None:
            def forget(_):
                fires = self.fallback_fires
                n = sum(fires.pop((uid, k)) for k in self._watched.pop(uid)[1])
                fires[RETIRED] = fires.get(RETIRED, 0) + n
            watched = self._watched[uid] = (weakref.ref(proxy, forget), [])
        watched[1].append(key)


class _Member:
    """One member of one class: read(proxy, ref) -> script value and
    write(ref, value)."""

    __slots__ = ("read", "write")

    def __init__(self, read, write):
        self.read = read
        self.write = write


class OutboundBridge:
    def __init__(self, registry):
        self.registry = registry
        self.converter = None  # wired by the interpreter
        self.stats = DispatchStats()
        # (class name, key) -> _Member, built on first use
        self._members: dict = {}         # instance members
        self._static_members: dict = {}  # static members
        self._element_stores: dict = {}  # array element tag -> setter
        self._constructors: dict = {}  # class name -> call_site
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
        select = self._constructors.get(name)
        if select is None:
            conv = self.converter
            select = self._constructors[name] = call_site(
                self.registry.constructors(name), name, conv.to_host, shape,
                conv.converter_for)
        ctor, args = select(script_args)
        return self.converter.to_script(
            self.registry.invoker(ctor)(None, args))

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
        ref = proxy.entries["__hostref"]
        array = ref.__class__ is HostArray
        fires = self.stats.fallback_fires
        sk = (proxy.uid, ELEMENTS if array and key.__class__ is float else key)
        n = fires.get(sk)
        if n is None:
            self.stats.watch(proxy, sk[1])
            n = 0
        fires[sk] = n + 1
        if array:
            if key.__class__ is float:
                if key.is_integer():
                    i = int(key) - 1
                    elements = ref.elements
                    if 0 <= i < len(elements):
                        return self.converter.to_script(elements[i])
                    raise index_error(int(key), len(elements))
            elif key == "length":
                return float(len(ref.elements))
            raise NoSuchMember("array", render(key))
        return self._member(ref, key).read(proxy, ref)

    def proxy_newindex(self, proxy: Table, key, value) -> None:
        if key == "__hostref":
            raise ReservedField("'__hostref' is reserved")
        ref = proxy.entries["__hostref"]
        if ref.__class__ is HostArray:
            if key.__class__ is float and key.is_integer():
                store = self._element_stores.get(ref.elem_tag)
                if store is None:
                    store = self._element_stores[ref.elem_tag] = \
                        self.converter.storer(ref.elem_tag, "the array")
                h = store(value)
                i = int(key) - 1
                elements = ref.elements
                if not 0 <= i < len(elements):
                    raise index_error(int(key), len(elements))
                elements[i] = h
                return
            if key == "length":
                raise TypeMismatch("array length is read-only")
            raise NoSuchMember("array", render(key))
        try:
            m = self._member(ref, key)
        except NoSuchMember:
            # an instance proxy refuses a store to a static method's name
            # as it does to an instance method's
            if ref.__class__ is HostObject and key in self.registry \
                    .lookup_class(ref.class_name).methods:
                raise _unassignable(key, ref.class_name, False) from None
            raise
        m.write(ref, value)

    # --------------------------------------------------------- member tables

    def _member(self, ref, key) -> _Member:
        """The member key of ref's class (instance members for a host
        object, statics for a class reference), built on first use."""
        if ref.__class__ is HostObject:
            members, cname, static = self._members, ref.class_name, False
        else:
            members, cname, static = self._static_members, ref.name, True
        m = members.get((cname, key))
        if m is None:
            m = members[(cname, key)] = self._build_member(cname, key, static)
        return m

    def _build_member(self, cname: str, key, static: bool) -> _Member:
        if key.__class__ is not str:
            raise NoSuchMember(cname, render(key))
        flat = self.registry.lookup_class(cname)
        spec = flat.fields.get(key)
        if spec is not None and spec.static == static:
            return self._field(cname, key, spec.tag, static)
        cands = flat.methods.get(key)
        if cands is not None and cands[0].static == static:
            return self._method(cname, key, cands, static)
        raise NoSuchMember(cname, key)

    def _field(self, cname: str, key: str, tag, static: bool) -> _Member:
        to_script = self.converter.to_script
        store = self.converter.storer(tag, f"{cname}.{key}")
        if static:
            _, values = self.registry.resolve_field(cname, key)

            def read(proxy, ref):
                return to_script(values[key])

            def write(ref, v):
                values[key] = store(v)
        else:
            def read(proxy, ref):
                return to_script(ref.fields[key])

            def write(ref, v):
                ref.fields[key] = store(v)
        return _Member(read, write)

    def _method(self, cname: str, key: str, cands, static: bool) -> _Member:
        conv = self.converter
        reg = self.registry
        stats = self.stats
        select = call_site(cands, cname, conv.to_host, shape,
                           conv.converter_for)
        to_script = conv.to_script
        # method -> (its invoker, is it void, the class of results that
        # pass back as they are)
        runs = {m: (reg.invoker(m), m.returns is VOID, AS_IS.get(m.returns))
                for m in cands}
        # a method whose one overload is nullary skips the call site
        nullary = runs[cands[0]] if len(cands) == 1 and not cands[0].params \
            else None

        def dispatch(args: list) -> list:
            stats.dispatches += 1
            if static:
                receiver = None
                nargs = len(args)
            else:
                receiver = args[0].entries.get("__hostref") \
                    if args and args[0].__class__ is Table else None
                if receiver.__class__ is not HostObject:
                    raise ReceiverMismatch(
                        f"method {key!r} needs a host receiver; "
                        f"call it with ':'")
                if receiver.class_name != cname \
                        and not reg.is_subclass(receiver.class_name, cname):
                    raise ReceiverMismatch(
                        f"method {key!r} of {cname!r} called on "
                        f"a {receiver.class_name!r}")
                nargs = len(args) - 1
            try:
                # the commonest call, nullary, is spared the slice and site
                if nullary is None:
                    m, args = select(args if static else args[1:])
                    invoke, void, as_is = runs[m]
                elif nargs:
                    raise NoMatch(f"{cname}.{key} takes no arguments")
                else:
                    invoke, void, as_is = nullary
                    args = _EMPTY
            except NoMatch as e:
                if static and args and args[0] is conv.class_proxy(cname):
                    raise NoMatch(f"{e}; {key!r} is static, "
                                  f"call it with '.'") from None
                raise
            r = invoke(receiver, args)
            if void:
                return _EMPTY
            return [r if r.__class__ is as_is else to_script(r)]

        shared = NativeFunction(dispatch, key)

        def read(proxy, ref):
            def first(args: list) -> list:
                vals = dispatch(args)
                proxy.entries[key] = shared
                return vals
            return NativeFunction(first, key)

        def write(ref, v):
            raise _unassignable(key, cname, static)
        return _Member(read, write)


def _unassignable(key: str, cname: str, static: bool) -> TypeMismatch:
    return TypeMismatch(
        f"{key!r} is a {'static method' if static else 'method'} "
        f"of {cname!r} and cannot be assigned")

