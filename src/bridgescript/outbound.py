"""Outbound bridge: host objects appear in scripts as proxy tables.

A proxy is an ordinary table whose "__hostref" entry holds the host
reference; everything else about it is supplied lazily by its
fallbacks, called directly on a miss or a store (see objects).

Fallbacks per class and kind.  A proxy has the pair of index and
newindex fallbacks of its kind and owner: build_proxy gives it one pair
per class for the proxies of its instances, and one per element tag for
arrays, each built with the first such proxy and shared by every later
one; build_class_proxy gives the one class proxy of a class (the
statics) a pair of its own.  The pair of a class closes over one
{key: member} table of that class's members, so a miss costs one dict
lookup.  A member is built on its first use after freeze(), once per
(class, member).  A field's member holds its tag's store, with the
conversion and check fixed when it is built; the fallbacks read and
write the field themselves, and an array's read and write its elements.
They read the host on every access: field values and array elements
are never cached, so scripts always see current host state.  A value of
a FLOAT, TEXT or BOOLEAN slot goes to the script as it is, any other
through to_script.  Every read that reaches a member counts one
fallback fire under (class name, member), and one that reaches an
element or an array's length under (element tag, ELEMENTS or "length").
A key that names no member is refused, and neither remembered nor
counted in DispatchStats.  proxy_index and proxy_newindex call a
proxy's own fallbacks.

Dispatch.  Each (class, method) has one dispatcher, shared by every
proxy of the class: it checks the receiver, chooses through the call
site, invokes and converts the result.  The first read of a method name
on a proxy stores the shared dispatcher into the proxy under that name
and returns it, so the fallback fires once per method per proxy, and
p.move == p.move holds before any call, as on a plain table.  The
dispatcher refers to no proxy, and the fallbacks to no proxy but the
one they are called with, so the proxy table is the only state the
bridge keeps per proxy.  In front of the general dispatcher stands the
chain of the method's lone overloads (registry.lone_slots), from the
registry's one template (HostRegistry.invoker): a crossing per lone
overload, in the order declared, each of which, for a call with
arguments of its slots' classes (a proxy of a host object of exactly
the slot's class, for a class slot) and, for an instance method, a
receiver of the dispatcher's own class, runs that body at once, with
the invoker's error handling and result check; a call no crossing takes
goes to the general dispatcher, which decides it through the call site
with the same errors.  A method of one lone overload has a chain of one
crossing, and one with none has the general dispatcher alone.  Hot code
makes the same crossings without calling the dispatcher (see inplace):
a call site that called it on closures runs, when the callee is that
dispatcher, the text of each crossing that takes as many arguments as
the site passes, read from the spelling and reads the dispatcher's
function carries.  Likewise each fallback carries reads, (the member
table, fallback_fires, to_script), whose field members and, for an
array, the one member of its elements give what a read or store in
place needs: the fire key, tag, as_is, store and whether the member is
a field; a read or store that reached a proxy's fallback on closures
then reads or writes the host value in place when the table has that
fallback, with the same count.

Call sites.  Each method, and each class's constructors, choose through
one registry.call_site over to_host, keyed by convert.shape (integral
number, fractional number, string, boolean, nil, host class name, array
element tag, plain table).  The site returns the chosen overload's
record and the arguments converted for its slots.  A method's record is
its registry invoker, whether it is void and the class of results that
pass back as they are; a constructor's is its invoker.  Calls that fit
a lone overload exactly never reach the site: its chain takes them.  A
class's constructors are one new(script args) per class, built on first
use: the chain of its constructors in front of the site.  A method
whose one overload is nullary refuses arguments as one that "takes no
arguments".  The invoker runs the body, wraps host errors as
HostException and checks the result against the return tag; the result
goes back through to_script.  NoMatch and Ambiguous are never cached; a
plain table is wrapped on every call.  A static method called with ':'
is told to call it with '.'.

Method names reject assignment, as does "__hostref" itself.  Arrays
expose 1-based numeric indexing, and their bounds errors name the index
the script used; they have a read-only "length".  Class proxies
expose static fields and static methods the same way instance proxies
expose instance members; an instance proxy knows no static name, and
reading or storing one raises NoSuchMember.
"""

from collections import defaultdict
from functools import partial

from .errors import (
    NoMatch,
    NoSuchMember,
    ReceiverMismatch,
    ReservedField,
    TypeMismatch,
)
from .convert import shape
from .objects import _EMPTY, NativeFunction, Table, render
from .registry import (
    AS_IS,
    VOID,
    HostArray,
    HostClassRef,
    HostObject,
    call_site,
    index_error,
)

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
    """One member of one class, or the elements of arrays of one tag, as
    the fallbacks use it: its fallback_fires key; method, a method's
    shared dispatcher, or None for a field; tag, a field's tag, and
    as_is, the class of its values that scripts take as they are;
    values, the dict holding a static field; store(v), what the field
    holds for the script value v, or a method's refusal to be assigned;
    and field, whether its values live in each host object or array, as
    an instance field's and elements' do."""

    __slots__ = ("fires_key", "method", "tag", "as_is", "values", "store",
                 "field")

    def __init__(self, fires_key, method, tag, values, store):
        self.fires_key = fires_key
        self.method = method
        self.tag = tag
        self.as_is = AS_IS.get(tag)
        self.values = values
        self.store = store
        self.field = method is None and values is None


class OutboundBridge:
    def __init__(self, registry):
        self.registry = registry
        self.converter = None  # wired by convert.Converter
        self.stats = DispatchStats()
        # the (index, newindex) fallbacks of the proxies of each class's
        # instances, by class name, and of each array element tag, by
        # tag, built on first use (see build_proxy)
        self._instances: dict = {}
        self._arrays: dict = {}
        # class name -> its new(script args), built on first use
        self._constructors: dict = {}

    def build_proxy(self, ref) -> Table:
        """A fresh proxy of the host object or array ref, with the
        fallbacks of its class or element tag."""
        t = Table()
        t.entries["__hostref"] = ref
        try:
            t.index_handler, t.newindex_handler = \
                self._instances[ref.class_name] \
                if ref.__class__ is HostObject else self._arrays[ref.elem_tag]
        except KeyError:  # the first proxy of its class or tag
            if ref.__class__ is HostObject:
                pair = self._instances[ref.class_name] = \
                    self._fallbacks(ref.class_name, False)
            else:
                pair = self._arrays[ref.elem_tag] = \
                    self._array_fallbacks(ref.elem_tag)
            t.index_handler, t.newindex_handler = pair
        return t

    def build_class_proxy(self, name: str) -> Table:
        """The proxy of the class name, with fallbacks of its own: the
        converter builds one per class."""
        t = Table()
        t.entries["__hostref"] = HostClassRef(name)
        t.index_handler, t.newindex_handler = self._fallbacks(name, True)
        return t

    # ------------------------------------------------------------ built-ins

    def host_new_instance(self, name: str, script_args: list) -> Table:
        new = self._constructors.get(name) or self._constructor(name)
        return new(script_args)

    def _constructor(self, name: str):
        """_constructors[name], built and stored: new(script args) -> the
        proxy of a new object of the class name, through the chain of
        its constructors' lone crossings, then their call site."""
        reg, to_script = self.registry, self.converter.to_script
        cands = reg.constructors(name)
        select = call_site(cands, name, self.converter.to_host, shape,
                           reg.invoker)

        def new(args: list) -> Table:
            invoke, args = select(args)
            return to_script(invoke(None, args))
        new = self._constructors[name] = reg.invoker(cands, new, to_script)
        return new

    # ------------------------------------------------------------ fallbacks

    def proxy_index(self, proxy: Table, key):
        return proxy.index_handler(proxy, key)

    def proxy_newindex(self, proxy: Table, key, value) -> None:
        proxy.newindex_handler(proxy, key, value)

    def _fallbacks(self, cname: str, static: bool):
        """The index and newindex fallbacks of the proxies of the
        instances of the class cname, or of the class itself if static,
        over one {key: member} table built on first use.  A field is
        read and written here."""
        members: dict = {}
        build = partial(self._member, members, cname, static)
        fires = self.stats.fallback_fires
        to_script = self.converter.to_script

        def index(proxy, key):
            m = members.get(key) or build(key)
            fires[m.fires_key] += 1
            f = m.method
            if f is not None:
                proxy.entries[key] = f  # later reads find it there
                return f
            v = m.values[key] if static else \
                proxy.entries["__hostref"].fields[key]
            return v if v.__class__ is m.as_is else to_script(v)

        def newindex(proxy, key, value):
            if key == "__hostref":
                raise ReservedField("'__hostref' is reserved")
            m = members.get(key) or build(key)
            h = m.store(value)
            if static:
                m.values[key] = h
            else:
                proxy.entries["__hostref"].fields[key] = h
        index.reads = newindex.reads = members, fires, to_script
        return index, newindex

    def _array_fallbacks(self, tag):
        """The index and newindex fallbacks of the proxies of arrays of
        tag elements."""
        fires = self.stats.fallback_fires
        elements_key, length_key = (tag, ELEMENTS), (tag, "length")
        to_script = self.converter.to_script
        as_is = AS_IS.get(tag)
        store = self.converter.storer(tag, "cannot store into the array")
        members = {ELEMENTS: _Member(elements_key, None, tag, None, store)}

        def index(proxy, key):
            if key.__class__ is float:
                if key.is_integer():
                    i = int(key) - 1
                    elements = proxy.entries["__hostref"].elements
                    if 0 <= i < len(elements):
                        fires[elements_key] += 1
                        v = elements[i]
                        return v if v.__class__ is as_is else to_script(v)
                    raise index_error(render(key), len(elements))
            elif key == "length":
                fires[length_key] += 1
                return float(len(proxy.entries["__hostref"].elements))
            raise NoSuchMember("array", render(key))

        def newindex(proxy, key, value):
            if key.__class__ is float and key.is_integer():
                h = store(value)
                i = int(key) - 1
                elements = proxy.entries["__hostref"].elements
                if not 0 <= i < len(elements):
                    raise index_error(render(key), len(elements))
                elements[i] = h
            elif key == "length":
                raise TypeMismatch("array length is read-only")
            elif key == "__hostref":
                raise ReservedField("'__hostref' is reserved")
            else:
                raise NoSuchMember("array", render(key))
        index.reads = newindex.reads = members, fires, to_script
        return index, newindex

    # ------------------------------------------------------------- members

    def _member(self, members: dict, cname: str, static: bool, key):
        """members[key], built: the field or method key of the class
        cname, a static one if static; NoSuchMember, remembered nowhere,
        if there is none."""
        if key.__class__ is not str:
            raise NoSuchMember(cname, render(key))
        flat = self.registry.lookup_class(cname)
        spec = flat.fields.get(key)
        if spec is not None and spec.static == static:
            values = self.registry.resolve_field(cname, key)[1] \
                if static else None
            store = self.converter.storer(
                spec.tag, f"cannot store into {cname}.{key}")
            m = _Member((cname, key), None, spec.tag, values, store)
        else:
            cands = flat.methods.get(key)
            if cands is None or cands[0].static != static:
                raise NoSuchMember(cname, key)
            m = self._method(cname, key, cands, static)
        members[key] = m
        return m

    def _method(self, cname: str, key: str, cands, static: bool) -> _Member:
        conv = self.converter
        reg = self.registry
        stats = self.stats

        def record(m):
            """An overload's invoker, is it void, and the class of its
            results that pass back as they are."""
            return reg.invoker(m), m.returns is VOID, AS_IS.get(m.returns)
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

        dispatch = reg.invoker(cands, dispatch, to_script, stats, cname)

        def refuse(v):
            raise TypeMismatch(
                f"{key!r} is a {'static method' if static else 'method'} "
                f"of {cname!r} and cannot be assigned")
        return _Member((cname, key), NativeFunction(dispatch, key), None,
                       None, refuse)
