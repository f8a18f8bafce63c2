"""Runtime values and the operations the evaluator is built on.

Script values map onto plain Python objects: nil is a singleton, booleans
are bool, numbers are float (one number type, double precision), strings
are str, and tables, closures and native functions are the classes below.
Storing nil into a table removes the key, so a present key is never nil.

A running script function works on a frame, a Python list laid out as

    [globals, upvals, slot, slot, ...]

globals is the interpreter's plain dict of global variables, upvals is
the running closure's tuple of captured cells, and each local variable,
parameter and for variable has a slot fixed at compile time.  A local
that a nested function names lives in its slot as a cell, a one-element
list, so the closure and the frame share it.

Tables carry two optional fallback handlers.  The index handler fires when
a read misses; the newindex handler, once installed, intercepts every
script-level write to the table.  Handler implementations and bridge
internals store through raw_set, which never triggers handlers.
"""

import itertools

from .errors import KeyIsNil, NotCallable, ScriptRuntimeError

_uid = itertools.count(1).__next__
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
    __slots__ = ("entries", "index_handler", "newindex_handler", "uid", "__weakref__")

    def __init__(self):
        self.entries: dict = {}
        self.index_handler = None
        self.newindex_handler = None
        self.uid = _uid()

    def __repr__(self) -> str:
        return f"table: 0x{self.uid:08x}"


class Closure:
    """A script function: compiled body, frame shape and captured cells.

    body is a closure frame -> None | list (a list being return values).
    The first nparams slots take the arguments and pad fills the others
    with nil.  upvals holds the cells of enclosing locals the body uses.
    """

    __slots__ = ("body", "nparams", "pad", "upvals", "globals", "uid",
                 "__weakref__")

    def __init__(self, body, nparams: int, pad: tuple, upvals: tuple,
                 globals: dict):
        self.body = body
        self.nparams = nparams
        self.pad = pad
        self.upvals = upvals
        self.globals = globals
        self.uid = _uid()

    def invoke(self, args: list) -> list:
        n = self.nparams
        if len(args) != n:
            args = args[:n] + [NIL] * (n - len(args))
        r = self.body([self.globals, self.upvals, *args, *self.pad])
        return _EMPTY if r is None else r

    def __repr__(self) -> str:
        return f"function: 0x{self.uid:08x}"


class NativeFunction:
    """A host-provided callable. fn takes and returns lists of script values."""

    __slots__ = ("fn", "name", "uid", "__weakref__")

    def __init__(self, fn, name: str = "?"):
        self.fn = fn
        self.name = name
        self.uid = _uid()

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
    """Script-level read: present entry, else index handler, else nil."""
    if t.__class__ is not Table:
        raise ScriptRuntimeError(f"attempt to index a {type_name(t)} value")
    check_key(key)
    v = t.entries.get(key, _MISS)
    if v is not _MISS:
        return v
    handler = t.index_handler
    if handler is not None:
        vals = call_value(handler, [t, key])
        return vals[0] if vals else NIL
    return NIL


def table_set(t: Table, key, value) -> None:
    """Script-level write: routed through the newindex handler when installed."""
    if t.__class__ is not Table:
        raise ScriptRuntimeError(f"attempt to index a {type_name(t)} value")
    check_key(key)
    handler = t.newindex_handler
    if handler is not None:
        call_value(handler, [t, key, value])
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
    """Install or replace a fallback handler; kind is 'index' or 'newindex'."""
    if kind == "index":
        t.index_handler = handler
    elif kind == "newindex":
        t.newindex_handler = handler
    else:
        raise ValueError(f"unknown fallback kind: {kind!r}")


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
