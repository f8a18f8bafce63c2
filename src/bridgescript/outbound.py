"""Outbound bridge: host objects appear in scripts as proxy tables.

A proxy is an ordinary table whose "__hostref" entry holds the host
reference; everything else about it is supplied lazily by its
fallbacks, which are the bridge's own proxy_index and proxy_newindex,
bound once and called directly on a miss or a store (see objects).

Member tables.  The index and newindex fallbacks find a key in a member
table: one for the instance members and one for the static members of
each class, shared by every proxy of that class.  A member is built on
its first use after freeze(), once per (class, member).  A field gets a
bound getter and a bound setter, the setter with its tag's conversion
and check fixed when it is built; a method gets one call site.  Host
arrays get one element setter per element tag.  Getters read the host on
every access: field values and array elements are never cached, so
scripts always see current host state.  A key that names no member is
refused, and neither remembered nor counted in DispatchStats.

Dispatch.  Each (class, method) has one dispatcher, shared by every
proxy of the class: it checks the receiver, chooses through the call
site, invokes and converts the result.  The first read of a method name
on a proxy stores the shared dispatcher into the proxy under that name
and returns it, so the fallback fires once per method per proxy, and
p.move == p.move holds before any call, as on a plain table.  The
dispatcher refers to no proxy, so the proxy table is the only state the
bridge keeps per proxy.  A method with one overload, all of whose
slots are FLOAT, TEXT or BOOLEAN, gets a dispatcher generated from
source, one spelling per arity and receiver kind: a call with arguments
of the slots' classes and, for an instance method, a receiver of the
declaring class itself runs the invoker at once; any other call goes to
the general dispatcher, which decides it through the call site with the
same errors.

Call sites.  Each method, and each class's constructors, choose through
one registry.call_site over to_host, keyed by convert.shape (integral
number, fractional number, string, boolean, nil, host class name, array
element tag, plain table), or by the arguments' classes where every
slot is FLOAT, TEXT or BOOLEAN (convert.site_shape), since those alone
decide such a call and its arguments pass as they are.  The site
returns the chosen overload's record and the arguments converted for
its slots.  A method's record is its registry invoker, whether it is
void and the class of results that pass back as they are; a
constructor's is its invoker.  A method whose one overload is nullary
refuses arguments as one that "takes no arguments".  The invoker runs
the body, wraps host errors as HostException and checks the result
against the return tag; the result goes back through to_script.
NoMatch and Ambiguous are never cached; a plain table is wrapped on
every call.  A static method called with ':' is told to call it with
'.'.

Method names reject assignment, as does "__hostref" itself.  Arrays
expose 1-based numeric indexing, and their bounds errors name the index
the script used; they have a read-only "length".  Class proxies
expose static fields and static methods the same way instance proxies
expose instance members; an instance proxy knows no static name, and
reading or storing one raises NoSuchMember.
"""

from collections import defaultdict
from functools import cache, partial

from .errors import (
    NoMatch,
    NoSuchMember,
    ReceiverMismatch,
    ReservedField,
    TypeMismatch,
)
from .convert import site_shape
from .objects import NativeFunction, Table, render
from .registry import (
    AS_IS,
    VOID,
    HostArray,
    HostObject,
    Memo,
    call_site,
    index_error,
)

_EMPTY: list = []
# The fallback_fires member of every element read of an array, so that
# an array's reads make one entry however many indices they use.
ELEMENTS = "[element]"


class DispatchStats:
    """Counters used by tests to pin down when fallbacks fire.  A read
    that reaches a member counts under (class name, member), and one
    that reaches an array's element or length under (element tag,
    ELEMENTS or "length"), so the entries are bounded by the members
    scripts use, however many proxies they create."""

    __slots__ = ("fallback_fires", "dispatches")

    def __init__(self):
        self.fallback_fires = defaultdict(int)  # (class name, member) -> count
        self.dispatches = 0

    def fires(self, proxy: Table, key) -> int:
        ref = proxy.entries["__hostref"]
        owner = ref.class_name if ref.__class__ is HostObject else \
            ref.elem_tag if ref.__class__ is HostArray else ref.name
        return self.fallback_fires.get((owner, key), 0)


class _Member:
    """One member of one class: its fallback_fires key, read(proxy, ref)
    -> script value and write(ref, value)."""

    __slots__ = ("fires_key", "read", "write")

    def __init__(self, fires_key, read, write):
        self.fires_key = fires_key
        self.read = read
        self.write = write


class OutboundBridge:
    def __init__(self, registry):
        self.registry = registry
        self.converter = None  # wired by convert.Converter
        self.stats = DispatchStats()
        # (class name, key) -> _Member, built on first use
        self._members = Memo(partial(self._build_member, static=False))
        self._static_members = Memo(partial(self._build_member, static=True))
        # array element tag -> setter, and -> its elements' and length's
        # fallback_fires keys; class name -> constructors' call_site
        self._element_stores = Memo(lambda tag: self.converter.storer(
            tag, "cannot store into the array"))
        self._array_keys = Memo(lambda t: ((t, ELEMENTS), (t, "length")))
        self._constructors = Memo(self._constructor_site)
        # every proxy's fallbacks, bound once
        self._index_handler = self.proxy_index
        self._newindex_handler = self.proxy_newindex

    def build_proxy(self, ref) -> Table:
        t = Table()
        t.entries["__hostref"] = ref
        t.index_handler = self._index_handler
        t.newindex_handler = self._newindex_handler
        return t

    # ------------------------------------------------------------ built-ins

    def host_new_instance(self, name: str, script_args: list) -> Table:
        invoke, args = self._constructors[name](script_args)
        return self.converter.to_script(invoke(None, args))

    def _constructor_site(self, name: str):
        """The call site of the constructors of the class name."""
        cands = self.registry.constructors(name)
        return call_site(cands, name, self.converter.to_host,
                         site_shape(cands), self.registry.invokers.__getitem__)

    # ------------------------------------------------------------ fallbacks

    def proxy_index(self, proxy: Table, key):
        ref = proxy.entries["__hostref"]
        fires = self.stats.fallback_fires
        if ref.__class__ is HostArray:
            if key.__class__ is float:
                if key.is_integer():
                    i = int(key) - 1
                    elements = ref.elements
                    if 0 <= i < len(elements):
                        fires[self._array_keys[ref.elem_tag][0]] += 1
                        return self.converter.to_script(elements[i])
                    raise index_error(render(key), len(elements))
            elif key == "length":
                fires[self._array_keys[ref.elem_tag][1]] += 1
                return float(len(ref.elements))
            raise NoSuchMember("array", render(key))
        m = self._member(ref, key)
        fires[m.fires_key] += 1
        return m.read(proxy, ref)

    def proxy_newindex(self, proxy: Table, key, value) -> None:
        if key == "__hostref":
            raise ReservedField("'__hostref' is reserved")
        ref = proxy.entries["__hostref"]
        if ref.__class__ is HostArray:
            if key.__class__ is float and key.is_integer():
                h = self._element_stores[ref.elem_tag](value)
                i = int(key) - 1
                elements = ref.elements
                if not 0 <= i < len(elements):
                    raise index_error(render(key), len(elements))
                elements[i] = h
                return
            if key == "length":
                raise TypeMismatch("array length is read-only")
            raise NoSuchMember("array", render(key))
        self._member(ref, key).write(ref, value)

    # --------------------------------------------------------- member tables

    def _member(self, ref, key) -> _Member:
        """The member key of ref's class (instance members for a host
        object, statics for a class reference), built on first use."""
        if ref.__class__ is HostObject:
            return self._members[ref.class_name, key]
        return self._static_members[ref.name, key]

    def _build_member(self, member: tuple, static: bool) -> _Member:
        cname, key = member
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
        store = self.converter.storer(
            tag, f"cannot store into {cname}.{key}")
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
        return _Member((cname, key), read, write)

    def _method(self, cname: str, key: str, cands, static: bool) -> _Member:
        conv = self.converter
        reg = self.registry
        stats = self.stats

        def record(m):
            """An overload's invoker, is it void, and the class of its
            results that pass back as they are."""
            return reg.invokers[m], m.returns is VOID, AS_IS.get(m.returns)
        shape = site_shape(cands)
        select = call_site(cands, cname, conv.to_host, shape, record)
        to_script = conv.to_script
        # how a method whose one overload is nullary refuses arguments
        no_args = f"{cname}.{key} takes no arguments" \
            if len(cands) == 1 and not cands[0].params else None

        def dispatch(args: list) -> list:
            stats.dispatches += 1
            if static:
                receiver = None
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
                args = args[1:]
            try:
                (invoke, void, as_is), args = select(args)
            except NoMatch as e:
                if no_args:
                    e = NoMatch(no_args)
                if static and args and args[0] is conv.class_proxy(cname):
                    e = NoMatch(f"{e.message}; {key!r} is static, "
                                f"call it with '.'")
                raise e from None
            r = invoke(receiver, args)
            if void:
                return _EMPTY
            return [r if r.__class__ is as_is else to_script(r)]

        if len(cands) == 1 and shape is type:
            # a lone overload of FLOAT, TEXT and BOOLEAN slots is the
            # verdict for arguments of their classes: such calls skip
            # the call site
            m = cands[0]
            dispatch = _lone_form(static, len(m.params))(
                stats, cname, dispatch, *record(m), to_script,
                *(AS_IS[t] for t in m.params))

        shared = NativeFunction(dispatch, key)

        def read(proxy, ref):
            proxy.entries[key] = shared
            return shared

        def write(ref, v):
            raise TypeMismatch(
                f"{key!r} is a {'static method' if static else 'method'} "
                f"of {cname!r} and cannot be assigned")
        return _Member((cname, key), read, write)


# The dispatcher of a method with one overload whose slots are all
# FLOAT, TEXT or BOOLEAN, for one spelling of its arity and receiver
# kind.  A call whose arguments are of the slots' classes and, for an
# instance method, whose receiver is an object of the declaring class
# itself is that overload's: it runs the invoker at once.  Any other
# call goes to the method's general dispatcher, which decides it as
# the call site does.
_LONE = """def lone(stats, cname, general, invoke, void, as_is, to_script{classes}):
    def dispatch(args):
        if len(args) == {n}{guard}:
            stats.dispatches += 1
            r = invoke({receiver}, {passed})
            if void:
                return _EMPTY
            return [r if r.__class__ is as_is else to_script(r)]
        return general(args)
    return dispatch
"""


@cache  # one per spelling, shared by every bridge
def _lone_form(static: bool, n: int):
    first = 0 if static else 1  # where the arguments start
    guard = "".join(f" and args[{first + i}].__class__ is c{i}"
                    for i in range(n))
    if not static:
        guard += (" and args[0].__class__ is Table and (receiver := "
                  "args[0].entries.get('__hostref')).__class__ is HostObject"
                  " and receiver.class_name == cname")
    source = _LONE.format(
        classes="".join(f", c{i}" for i in range(n)), n=first + n,
        guard=guard, receiver="None" if static else "receiver",
        passed="args" if static else "args[1:]" if n else "_EMPTY")
    env = {"_EMPTY": _EMPTY, "HostObject": HostObject, "Table": Table}
    exec(compile(source, f"<dispatch {'static' if static else 'method'} "
                         f"{n}>", "exec"), env)
    return env["lone"]
