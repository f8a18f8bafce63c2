"""Runtime values and the operations the evaluator is built on.

Script values map onto plain Python objects: nil is a singleton, booleans
are bool, numbers are float (one number type, double precision), strings
are str, and tables, closures and native functions are the classes below.
Storing nil into a table removes the key, so a present key is never nil.

A script function is entered as body(globals, upvals, a1, ..., an),
one positional argument per parameter; a chunk is the body of a
function with no parameters.  globals is the interpreter's plain dict
of global variables and upvals the running closure's tuple of captured
cells.  Each local variable, parameter and for variable has a slot
fixed at compile time.  Code running on closures keeps the slots in a
frame, a Python list laid out as

    [globals, upvals, slot, slot, ...]

Generated code keeps every slot in a Python local instead; it touches
a frame only where a generated loop takes over one from closures, on
entry and at its end.  A local that a nested function names lives in
its slot as a cell, a one-element list, so the closures that capture
it and the body that declares it share it.

Tables carry two optional fallback handlers, plain Python functions.
The index handler, read(t, key) -> value, fires when a read misses; the
newindex handler, write(t, key, value), once installed, intercepts
every script-level write to the table.  The bridge's proxies install
its own methods; set_fallback wraps a script function once, when it is
installed, so only there does a fallback meet the list protocol.
Handler implementations and bridge internals store through raw_set,
which never triggers handlers.

Tables and closures print as their id(), as host values do, so two
that live at once never print alike.
"""

from .errors import KeyIsNil, NotCallable, ScriptRuntimeError

_MISS = object()
_EMPTY: list = []  # shared no-results list; treated as read-only everywhere


class NilType:
    __slots__ = ()

    def __repr__(self) -> str:
        return "nil"

    def __bool__(self) -> bool:
        return False


NIL = NilType()


class Table:
    __slots__ = ("entries", "index_handler", "newindex_handler", "__weakref__")

    def __init__(self):
        self.entries: dict = {}
        self.index_handler = None
        self.newindex_handler = None

    def __repr__(self) -> str:
        return f"table: 0x{id(self):08x}"


class Proto:
    """What every closure of one function literal shares.

    body is the function's one entry, body(globals, upvals, a1, ...,
    an) -> None | list (a list being return values), called with
    exactly nparams arguments; a chunk's has none.  body changes once,
    when the function is hot enough to be generated as Python source
    that keeps its slots in Python locals (see nodes), and every
    closure of the literal, old or new, runs the new body from then on.
    tree is the literal's body as nodes, which the second tier may write
    out in place at a call site.
    """

    __slots__ = ("body", "nparams", "tree", "__weakref__")

    def __init__(self, body, nparams: int, tree=None):
        self.body = body
        self.nparams = nparams
        self.tree = tree


class Closure:
    """A script function: its literal's Proto plus captured cells.

    upvals holds the cells of enclosing locals the body uses.
    """

    __slots__ = ("proto", "upvals", "globals", "__weakref__")

    def __init__(self, proto: Proto, upvals: tuple, globals: dict):
        self.proto = proto
        self.upvals = upvals
        self.globals = globals

    def invoke(self, args: list) -> list:
        """Call with args padded with nil or cut to the parameters."""
        p = self.proto
        n = p.nparams
        if len(args) != n:
            args = args[:n] + [NIL] * (n - len(args))
        r = p.body(self.globals, self.upvals, *args)
        return _EMPTY if r is None else r

    def __repr__(self) -> str:
        return f"function: 0x{id(self):08x}"


class NativeFunction:
    """A host-provided callable. fn takes and returns lists of script values.
    one, if given, is the same function of exactly one script value, which
    returns one script value, for generated code to call (see nodes)."""

    __slots__ = ("fn", "name", "one", "__weakref__")

    def __init__(self, fn, name: str = "?", one=None):
        self.fn = fn
        self.name = name
        self.one = one

    def invoke(self, args: list) -> list:
        return self.fn(args)

    def __repr__(self) -> str:
        return f"function: builtin {self.name}"


def call_value(f, args: list) -> list:
    """Call a script value with positional args; returns the value list."""
    cls = f.__class__
    if cls is Closure or cls is NativeFunction:
        return f.invoke(args)
    raise NotCallable(f"attempt to call a {type_name(f)} value")


def check_key(key, line: int | None = None):
    if key.__class__ is str or key.__class__ is float:
        if key == key:  # rejects NaN
            return
        raise ScriptRuntimeError("table key is NaN", line)
    if key is NIL:
        raise KeyIsNil("table key is nil", line)
    raise ScriptRuntimeError(f"table key must be a string or number, got {type_name(key)}", line)


def table_get(t: Table, key):
    """Script-level read: present entry, else index handler, else nil.
    A NaN key is never present, so it misses, as a script read does."""
    if t.__class__ is not Table:
        raise ScriptRuntimeError(f"attempt to index a {type_name(t)} value")
    if key.__class__ is not str and key.__class__ is not float:
        check_key(key)  # raises: nil or not a string or number
    v = t.entries.get(key, _MISS)
    if v is not _MISS:
        return v
    handler = t.index_handler
    if handler is not None:
        return handler(t, key)
    return NIL


def table_set(t: Table, key, value) -> None:
    """Script-level write: routed through the newindex handler when installed."""
    if t.__class__ is not Table:
        raise ScriptRuntimeError(f"attempt to index a {type_name(t)} value")
    check_key(key)
    handler = t.newindex_handler
    if handler is not None:
        handler(t, key, value)
        return
    if value is NIL:
        t.entries.pop(key, None)
    else:
        t.entries[key] = value


def raw_set(t: Table, key, value) -> None:
    """Store without consulting handlers. Storing nil removes the key."""
    check_key(key)
    if value is NIL:
        t.entries.pop(key, None)
    else:
        t.entries[key] = value


def set_fallback(t: Table, kind: str, handler) -> None:
    """Install or replace a fallback; kind is 'index' or 'newindex'.
    handler is a script function, called with (t, key) or (t, key,
    value), an index handler's first result being the value read; None
    removes the fallback."""
    if kind != "index" and kind != "newindex":
        raise ValueError(f"unknown fallback kind: {kind!r}")
    if handler is None:
        fallback = None
    elif handler.__class__ is not Closure \
            and handler.__class__ is not NativeFunction:
        raise TypeError(f"{kind} fallback must be a function, "
                        f"got {type_name(handler)}")
    elif kind == "index":
        def fallback(t, key):
            vals = handler.invoke([t, key])
            return vals[0] if vals else NIL
    else:
        def fallback(t, key, value):
            handler.invoke([t, key, value])
    setattr(t, f"{kind}_handler", fallback)


def format_number(v: float) -> str:
    return "%.14g" % v


def type_name(v) -> str:
    if v is NIL:
        return "nil"
    cls = v.__class__
    if cls is float:
        return "number"
    if cls is str:
        return "string"
    if cls is bool:
        return "boolean"
    if cls is Table:
        return "hostobject" if "__hostref" in v.entries else "table"
    if cls is Closure or cls is NativeFunction:
        return "function"
    return "userdata"


def render(v) -> str:
    """Canonical display form, used by print and the REPL."""
    if v is NIL:
        return "nil"
    cls = v.__class__
    if cls is float:
        return format_number(v)
    if cls is str:
        return v
    if cls is bool:
        return "true" if v else "false"
    if cls is Table:
        ref = v.entries.get("__hostref")
        if ref is not None:
            return f"hostobject: {ref!r}"
        return repr(v)
    return str(v)


def script_equals(l, r) -> bool:
    lc, rc = l.__class__, r.__class__
    if lc is not rc:
        return False
    if lc is float or lc is str or lc is bool:
        return l == r
    return l is r
