"""AST nodes, their compilation to Python closures, and a second tier
that generates Python source for hot code.

Nodes do not evaluate themselves directly.  Each expression compiles
once into a closure frame -> value, and each statement into a closure
frame -> None | list, where a list is the in-flight result of a return
statement; block runners propagate it upward.

Variables are resolved while compiling, not while parsing, by a Scope
per function body.  Each local, parameter and for variable gets a slot,
which later blocks reuse once its own block has ended; a body's own
statements end with its scope, so only nested blocks mark and restore
it.  A name that no enclosing scope declares is a global, read and
written straight in the globals dict.  The first use of a name in a
body resolves it through the enclosing scopes, and the body keeps the
answer, so every later use costs one dict lookup.  The parser tells
each function body which names its nested functions use; a local with
such a name lives in its slot as a cell, a one-element list, and a
nested function copies the cells it needs into its closure's upvals
when the closure is made.  Whether a local is a cell is known only once
its whole body has been read, which is why the parser does not resolve
names itself.  A local is in scope from the statement after its
declaration, except that a local whose initializer is a function
literal is already in scope inside it, so local functions can recurse.

A call compiles to one closure that gives what its place needs: its
first value, its value list (the last expression of a return), or
nothing, as a statement.

A function is entered through its Proto as body(globals, upvals, a1,
..., an), which every closure of the literal shares (see objects).  A
chunk is the body of a function with no parameters, run as
body(globals, ()).  On closures the body builds a frame, the list
[globals, upvals, slot, slot, ...], and every slot lives there.

A while or for statement counts its iterations across its runs, and a
function body or chunk its calls.  At the K-th, the statement or body
is written out as the source of a Python function (the gen methods) and
compiled.  It makes the same checks and raises the same errors at the
same lines, with the same cells and upvals.  It keeps every slot in a
Python local s<slot>, which holds the cell itself for a cell, and makes
closures from those locals.  There are two unit shapes.  A body,
run(G, U, s2, ...), takes its parameters as its own and builds no
frame.  A loop, run(fr, ...), works on its caller's frame on closures,
so it moves in the middle of a run: its first lines load globals,
upvals and the slots it names, and its last lines store the slots back
at its normal end.  No other generated line touches a frame.  A for
loop's unit is handed its counter, limit and step, since every run
checks its bounds and makes its variable on closures.  A return or an
error ends the frame, since the language has no pcall and no break, so
neither stores back.

A call site on closures records, once and weakly, the Proto of the
first closure it calls.  When a unit is generated, a site that wants
one value or none, whose recorded Proto is alive and whose body is
small, with no loop or function literal, and takes as many parameters
as the site passes arguments, gets that body written in place, unless
it is the unit's own.  It runs when the callee is a closure whose Proto
has that same tree; any other callee takes the generic call, in the
guard's else.  The guard holds the tree, which refers to no Proto, so
units that write each other's bodies make no cycle.  The body's slots
are fresh Python locals, its G and U the closure's, its first return
value the site's, and what the site knows of the arguments, such as a
receiver being a table, it knows too.  A body that returns before its
end runs inside `while True:`, and each of its returns gives the site
its value and leaves by `break`.  It sits in the site's try, so its
errors keep their classes, texts and lines.
Only one level is written in place.  A site records its first callee
weakly also when that is a native function, and a read or store the
first fallback it reaches; a lone host method's crossing, or a read or
store of a host field or element, is then written in place too, behind
a guard on that object's identity (see inplace).  So is the one-value
form of a native function called with one argument, such as type's and
tostring's, also inside a callee written in place, since it writes no
body there.  A loop with no loop
inside is peeled: its first iteration runs apart, with every check, and
the iterations after keep what it established of the slots the loop
never assigns.  If Python refuses the source, the unit is generated
again plain, with none of these, and if it refuses that too, the node
stays on closures.

Every node carries the line of its first token.
"""

import operator
import weakref
from math import copysign, isfinite

from . import inplace
from .errors import BridgeScriptError, NotCallable, ScriptRuntimeError
from .objects import (
    NIL,
    Closure,
    NativeFunction,
    Proto,
    Table,
    check_key,
    format_number,
    script_equals,
    type_name,
)

_MISS = object()
_EMPTY: list = []

# where Scope.resolve finds a name
LOCAL, CELL, UPVAL, GLOBAL = range(4)
_GLOBAL = (GLOBAL, None)

# what a compiled call gives: its first value, its value list, or None
ONE, ALL, NONE = "one", "all", "none"


class Scope:
    """Compile-time view of one function body: its slots and upvalues.

    names maps each name the body has met so far to where it lives, as
    resolve returns it; shadowed records what a declaration hid, so the
    end of a block can restore it.  captured holds the names the body's
    nested functions use; a local with one of those names is kept in a
    cell.  sources has one entry per upvalue: the slot of the enclosing
    body's cell, or ~j for the enclosing body's own upvalue j.
    """

    __slots__ = ("parent", "captured", "names", "shadowed", "top", "size",
                 "sources")

    def __init__(self, parent, captured: set):
        self.parent = parent
        self.captured = captured
        self.names: dict = {}
        self.shadowed: list = []  # (name, earlier entry or None)
        self.top = self.size = 2  # frame[0] is globals, frame[1] upvals
        self.sources: list = []

    def open(self):
        return self.top, len(self.shadowed)

    def close(self, mark) -> None:
        self.top, n = mark
        names = self.names
        shadowed = self.shadowed
        while len(shadowed) > n:
            name, earlier = shadowed.pop()
            if earlier is None:
                del names[name]
            else:
                names[name] = earlier

    def declare(self, name: str):
        """Bind name to a fresh slot until the current block ends."""
        slot = self.top
        self.top = slot + 1
        if self.top > self.size:
            self.size = self.top
        entry = (CELL if name in self.captured else LOCAL), slot
        self.shadowed.append((name, self.names.get(name)))
        self.names[name] = entry
        return entry

    def resolve(self, name: str):
        """(LOCAL or CELL, slot), (UPVAL, index) or (GLOBAL, None)."""
        entry = self.names.get(name)
        if entry is None:
            if self.parent is None:
                entry = _GLOBAL
            else:
                kind, i = self.parent.resolve(name)
                if kind == GLOBAL:
                    entry = _GLOBAL
                else:
                    # the parser put name in the parent's captured set,
                    # so the parent holds it in a cell or an upvalue
                    self.sources.append(~i if kind == UPVAL else i)
                    entry = UPVAL, len(self.sources) - 1
            # globals and upvalues hold for the whole body
            self.names[name] = entry
        return entry


class Node:
    __slots__ = ("line",)


# ------------------------------------------------------------- expressions

class _Literal(Node):
    __slots__ = ("value",)

    def __init__(self, value, line: int):
        self.value = value
        self.line = line

    def compile(self, scope):
        v = self.value
        return lambda fr: v

    def gen(self, g):
        return g.literal(self.value)


class NumberLit(_Literal):
    __slots__ = ()


class StringLit(_Literal):
    __slots__ = ()


class BoolLit(_Literal):
    __slots__ = ()


class NilLit(Node):
    __slots__ = ()

    def __init__(self, line: int):
        self.line = line

    def compile(self, scope):
        return _nil

    def gen(self, g):
        return "NIL"


def _nil(fr):
    return NIL


class VarExpr(Node):
    __slots__ = ("name", "where")

    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.where = None  # (kind, index), set when compiled

    def compile(self, scope):
        name = self.name
        self.where = kind, i = scope.names.get(name) or scope.resolve(name)
        if kind == GLOBAL:
            return lambda fr: fr[0].get(name, NIL)
        if kind == LOCAL:
            return operator.itemgetter(i)
        if kind == CELL:
            return lambda fr: fr[i][0]
        return lambda fr: fr[1][i][0]

    def gen(self, g):
        v = g.variable(self)
        if self.where[0] == LOCAL:
            return v  # a Python local, which only a statement changes
        t = g.temp()
        g.emit(f"{t} = {v}")
        return t


def _name(key):
    """The string key's literal text, if it is one, else None."""
    return key.value if key.__class__ is StringLit else None


def _index_error(v, line):
    return ScriptRuntimeError(f"attempt to index a {type_name(v)} value", line)


def _index_fallback(t, key, line):
    handler = t.index_handler
    if handler is None:
        return NIL
    try:
        return handler(t, key)
    except BridgeScriptError as e:
        if e.line is None:
            e.line = line
        raise


class IndexExpr(Node):
    """t[key], and t.name.  seen, once set, is a weak reference to the
    index fallback of the first table the read missed on, on closures."""

    __slots__ = ("obj", "key", "seen")

    def __init__(self, obj, key, line: int):
        self.obj = obj
        self.key = key
        self.line = line
        self.seen = None

    def compile(self, scope):
        obj_c = self.obj.compile(scope)
        line = self.line
        key_c = self.key.compile(scope)
        node = self

        def index(fr):
            t = obj_c(fr)
            if t.__class__ is not Table:
                raise _index_error(t, line)
            key = key_c(fr)
            if key.__class__ is str or key.__class__ is float:
                v = t.entries.get(key, _MISS)
                if v is not _MISS:
                    return v
                if t.index_handler is not None and node.seen is None:
                    node.seen = weakref.ref(t.index_handler)
                return _index_fallback(t, key, line)
            check_key(key, line)  # raises: nil or not a string or number

        return index

    def gen(self, g):
        t = self.obj.gen(g)
        g.check_table(t, self.line)
        return g.index(t, self.key.gen(g), self.line, self)


def _call_error(f, line):
    return NotCallable(f"attempt to call a {type_name(f)} value", line)


class CallExpr(Node):
    """A call.  With a name it is the method call callee:name(args): the
    receiver callee is evaluated once and must be a table, name is
    looked up in it before the arguments are evaluated, and the receiver
    goes first into the call.  Python running out of stack inside a
    call, as unbounded script recursion does, becomes a
    ScriptRuntimeError at its line.  seen, once set, is a weak reference
    to the Proto of the first closure the site called on closures, or to
    the first native function, if that came first."""

    __slots__ = ("callee", "args", "name", "seen")

    def __init__(self, callee, args: list, line: int, name=None):
        self.callee = callee
        self.args = args
        self.line = line
        self.name = name
        self.seen = None  # set by the first call of a function

    def compile(self, scope, want=ONE):
        """fr -> the call's first value (want ONE), its value list, which
        may be None (ALL), or None (NONE, a call statement)."""
        line = self.line
        name = self.name
        callee_c = self.callee.compile(scope)
        args_c = [a.compile(scope) for a in self.args]

        def call(fr):
            if name is None:
                f = callee_c(fr)
                args = []
            else:
                # the receiver must be a table; a method it lacks comes
                # from its index fallback
                t = callee_c(fr)
                if t.__class__ is not Table:
                    raise _index_error(t, line)
                f = t.entries.get(name, _MISS)
                if f is _MISS:
                    f = _index_fallback(t, name, line)
                args = [t]
            for c in args_c:
                args.append(c(fr))
            cls = f.__class__
            try:
                if cls is Closure:
                    if self.seen is None:
                        self.seen = weakref.ref(f.proto)
                    vals = f.invoke(args)
                elif cls is NativeFunction:
                    if self.seen is None:
                        self.seen = weakref.ref(f)
                    vals = f.fn(args)
                else:
                    raise _call_error(f, line)
            except BridgeScriptError as e:
                if e.line is None:
                    e.line = line
                raise
            except RecursionError:
                raise ScriptRuntimeError("stack overflow", line) from None
            if want is ONE:
                return vals[0] if vals else NIL
            return vals if want is ALL else None

        return call

    def gen(self, g, want=ONE):
        """The call as statements; the temporary of its first value, or
        of its value list, which may be None, for ALL and NONE alike.  A
        closure with as many parameters as there are arguments gets its
        body called directly.  A closure of the small function the site
        saw on closures, if any (see _Gen.inlinable), runs that body
        written in place, inside the same try; so does the dispatcher
        of a lone host method the site saw, its crossing (see inplace),
        and a native function with a one-value form, called with one
        argument, that form."""
        line = self.line
        f = self.callee.gen(g)
        vals = []
        if self.name is not None:
            vals.append(f)
            g.check_table(f, line)
            f = g.index(f, g.literal(self.name), line)
        vals += [a.gen(g) for a in self.args]
        arglist = ", ".join(vals)
        entry = ", ".join([f"{f}.globals", f"{f}.upvals", *vals])
        r = g.temp()
        v = g.temp() if want is ONE else None
        tree = g.inlinable(self, len(vals), want)
        seen = None if tree is not None else g.seen(self)
        host = inplace.dispatcher(seen, len(vals))
        one = None if host is not None else inplace.native(g, seen, len(vals))
        depth = g.depth
        g.emit("try:")
        g.depth += 1
        if tree is not None:
            g.emit(f"if {f}.__class__ is Closure and "
                   f"{f}.proto.tree is {g.const(tree)}:")
            g.inline(tree, f, vals, v)
        elif host is not None:
            inplace.call(g, host, f, vals, v, r if want is ALL else None)
        elif one is not None:
            k, fn = one
            g.natives += 1
            x = f"{fn}({vals[0]})"
            g.emit(f"if {f} is {k}: " + (f"{v} = {x}" if want is ONE else
                                         f"{r} = [{x}]" if want is ALL else x))
        if tree is not None or host is not None or one is not None:
            g.emit("else:")
            g.depth += 1
        g.emit(f"if {f}.__class__ is Closure:")
        g.emit(f"    p = {f}.proto")
        g.emit(f"    if p.nparams == {len(vals)}: {r} = p.body({entry})")
        g.emit(f"    else: {r} = {f}.invoke([{arglist}])")
        g.emit(f"elif {f}.__class__ is NativeFunction: "
               f"{r} = {f}.fn([{arglist}])")
        g.emit(f"else: raise _call_error({f}, {line})")
        if want is ONE:
            g.emit(f"{v} = {r}[0] if {r} else NIL")
        g.depth = depth
        g.emit("except BridgeScriptError as e:")
        g.emit(f"    if e.line is None: e.line = {line}")
        g.emit("    raise")
        g.emit("except RecursionError:")
        g.emit(f"    raise ScriptRuntimeError('stack overflow', {line}) "
               f"from None")
        return r if v is None else v


class ParenCall(CallExpr):
    """(call): a call in parentheses gives its first value, also where a
    bare call would give all of them."""

    __slots__ = ()


def _proto(scope, captured: set, params: list, body: "Block", line: int):
    """The Proto of a function body, or of a chunk with no parameters,
    and the upvalue sources of its scope.  The body counts calls and is
    generated as Python source at the K-th."""
    inner = Scope(scope, captured)
    cells = []  # parameters that nested functions use, boxed on entry
    for name in params:
        kind, slot = inner.declare(name)
        if kind == CELL:
            cells.append(slot)
    body_c = body.sequence(inner)
    n = len(params)
    proto = Proto(None, n, body)
    pad = (NIL,) * (inner.size - 2 - n)
    left = K
    # count reaches the body rather than the node, which refers to the
    # proto, and the proto only weakly: with no reference cycle, a
    # dropped function and its tree go at once
    home = weakref.ref(proto)

    def count(G, U, *args):
        nonlocal left
        left -= 1
        if not left:
            def gen_unit(g) -> str:
                g.own = body
                g.block(body)
                g.lines[:0] = [f"    s{i} = [s{i}]" for i in cells]
                return ", ".join(["G", "U",
                                  *[f"s{i}" for i in range(2, 2 + n)]])

            hot = _generate(gen_unit, line)
            if hot is not None:
                home().body = hot  # alive: its caller holds it
                return hot(G, U, *args)
        fr = [G, U, *args, *pad]
        for i in cells:
            fr[i] = [fr[i]]
        return body_c(fr)

    proto.body = count
    return proto, inner.sources


class FunctionExpr(Node):
    """A function literal.  captured is the set of names that functions
    nested in its body use, recorded by the parser."""

    __slots__ = ("params", "body", "captured", "proto", "sources")

    def __init__(self, params: list[str], body: "Block", line: int,
                 captured: set):
        self.params = params
        self.body = body
        self.line = line
        self.captured = captured
        self.proto = self.sources = None  # set when compiled

    def compile(self, scope):
        self.proto, self.sources = proto, sources = _proto(
            scope, self.captured, self.params, self.body, self.line)

        def make(fr):
            upvals = ()
            if sources:
                up = fr[1]
                upvals = tuple([fr[i] if i >= 0 else up[~i] for i in sources])
            return Closure(proto, upvals, fr[0])

        return make

    def gen(self, g):
        ups = "".join((g.slot(i) if i >= 0 else f"U[{~i}]") + ", "
                      for i in self.sources)
        t = g.temp(Closure)
        g.emit(f"{t} = Closure({g.const(self.proto)}, ({ups}), G)")
        return t


class TableCtor(Node):
    __slots__ = ("fields",)

    def __init__(self, fields: list, line: int):
        self.fields = fields  # list of (name, expr)
        self.line = line

    def compile(self, scope):
        fields_c = [(name, expr.compile(scope)) for name, expr in self.fields]

        def make(fr):
            t = Table()
            entries = t.entries
            for name, c in fields_c:
                v = c(fr)
                if v is not NIL:
                    entries[name] = v
            return t

        return make

    def gen(self, g):
        t = g.temp(Table)
        g.emit(f"{t} = Table()")
        for name, expr in self.fields:
            v = expr.gen(g)
            store = f"{t}.entries[{name!r}] = {v}"
            g.emit(store if g.kind(v) else f"if {v} is not NIL: {store}")
        return t


def _arith_error(l, r, line):
    bad = l if l.__class__ is not float else r
    return ScriptRuntimeError(
        f"attempt to perform arithmetic on a {type_name(bad)} value", line)


def _compare_error(l, r, line):
    return ScriptRuntimeError(
        f"attempt to compare {type_name(l)} with {type_name(r)}", line)


def _divide(l, r):
    if r != 0.0:
        return l / r
    # numbers are IEEE doubles, so follow IEEE rather than raise
    if l == 0.0:
        return float("nan")
    same_sign = copysign(1.0, l) == copysign(1.0, r)
    return float("inf") if same_sign else float("-inf")


def _concat(l, r, line):
    lt = l if l.__class__ is str else (
        format_number(l) if l.__class__ is float else None)
    rt = r if r.__class__ is str else (
        format_number(r) if r.__class__ is float else None)
    if lt is not None and rt is not None:
        return lt + rt
    bad = l if lt is None else r
    raise ScriptRuntimeError(
        f"attempt to concatenate a {type_name(bad)} value", line)


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": _divide}
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge}


class BinOp(Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right, line: int):
        self.op = op
        self.left = left
        self.right = right
        self.line = line

    def compile(self, scope):
        op = self.op
        line = self.line
        lc = self.left.compile(scope)
        rc = self.right.compile(scope)
        if op in _ARITH:
            fn = _ARITH[op]

            def arith(fr):
                l = lc(fr)
                r = rc(fr)
                if l.__class__ is float and r.__class__ is float:
                    return fn(l, r)
                raise _arith_error(l, r, line)

            return arith
        if op in _ORDER:
            fn = _ORDER[op]

            def order(fr):
                l = lc(fr)
                r = rc(fr)
                c = l.__class__
                if c is r.__class__ and (c is float or c is str):
                    return fn(l, r)
                raise _compare_error(l, r, line)

            return order
        if op == "==":
            return lambda fr: script_equals(lc(fr), rc(fr))
        if op == "~=":
            return lambda fr: not script_equals(lc(fr), rc(fr))
        return lambda fr: _concat(lc(fr), rc(fr), line)

    def gen(self, g):
        op = self.op
        line = self.line
        l = self.left.gen(g)
        r = self.right.gen(g)
        lt = g.kind(l)
        rt = g.kind(r)
        if op in _ARITH:
            unknown = [x for x, xt in ((l, lt), (r, rt)) if xt is not float]
            if unknown:
                g.emit("if " + " or ".join(f"{x}.__class__ is not float"
                                           for x in unknown)
                       + f": raise _arith_error({l}, {r}, {line})")
                g.facts.update(dict.fromkeys(unknown, float))
            t = g.temp(float)
            g.emit(f"{t} = _divide({l}, {r})" if op == "/"
                   else f"{t} = {l} {op} {r}")
            return t
        if op in _ORDER:
            if lt is rt and lt in (float, str):
                pass
            elif lt in (float, str) and rt is None:
                g.emit(f"if {r}.__class__ is not {lt.__name__}: "
                       f"raise _compare_error({l}, {r}, {line})")
                g.facts[r] = lt
            elif rt in (float, str) and lt is None:
                g.emit(f"if {l}.__class__ is not {rt.__name__}: "
                       f"raise _compare_error({l}, {r}, {line})")
                g.facts[l] = rt
            else:
                g.emit(f"if {l}.__class__ is not {r}.__class__ or "
                       f"{l}.__class__ is not float and "
                       f"{l}.__class__ is not str: "
                       f"raise _compare_error({l}, {r}, {line})")
            t = g.temp(bool)
            g.emit(f"{t} = {l} {op} {r}")
            return t
        if op in ("==", "~="):
            if l == "NIL" or r == "NIL":
                other = r if l == "NIL" else l
                test = ("True" if other == "NIL" else "False"
                        if g.kind(other) else f"{other} is NIL")
            elif rt in (float, str, bool):
                test = f"{l}.__class__ is {rt.__name__} and {l} == {r}"
            elif lt in (float, str, bool):
                test = f"{r}.__class__ is {lt.__name__} and {r} == {l}"
            else:
                test = f"script_equals({l}, {r})"
            t = g.temp(bool)
            g.emit(f"{t} = not ({test})" if op == "~="
                   else f"{t} = {test}")
            return t
        t = g.temp(str)
        if lt not in (str, None) or rt not in (str, None):
            g.emit(f"{t} = _concat({l}, {r}, {line})")
            return t
        # only a side whose class is unknown is tested
        test = " and ".join(f"{x}.__class__ is str"
                            for x, xt in ((l, lt), (r, rt)) if xt is None)
        g.emit(f"{t} = {l} + {r}" + (test and f" if {test} else "
                                     f"_concat({l}, {r}, {line})"))
        return t


class UnaryOp(Node):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand, line: int):
        self.op = op
        self.operand = operand
        self.line = line

    def compile(self, scope):
        if self.operand.__class__ is NumberLit:
            v = -self.operand.value
            return lambda fr: v
        c = self.operand.compile(scope)
        line = self.line

        def neg(fr):
            v = c(fr)
            if v.__class__ is float:
                return -v
            raise _arith_error(v, v, line)

        return neg

    def gen(self, g):
        if self.operand.__class__ is NumberLit:
            return g.literal(-self.operand.value)
        v = self.operand.gen(g)
        if g.kind(v) is not float:
            g.emit(f"if {v}.__class__ is not float: "
                   f"raise _arith_error({v}, {v}, {self.line})")
            g.facts[v] = float
        t = g.temp(float)
        g.emit(f"{t} = -{v}")
        return t


# -------------------------------------------------------------- statements

class Block:
    __slots__ = ("stmts",)

    def __init__(self, stmts: list):
        self.stmts = stmts

    def compile(self, scope):
        """The block's sequence closure; its locals go out of scope at its
        end."""
        mark = scope.open()
        run = self.sequence(scope)
        scope.close(mark)
        return run

    def sequence(self, scope):
        """Sequence closure, as the whole of a function body or chunk,
        whose locals end with its scope.  A statement too deeply nested
        to compile, such as a long chain of calls or operators, is a
        stack overflow at its line."""
        codes = []
        for s in self.stmts:
            try:
                codes.append(s.compile_stmt(scope))
            except RecursionError:
                raise ScriptRuntimeError("stack overflow", s.line) from None
        if len(codes) == 1:
            return codes[0]

        def run(fr):
            for c in codes:
                r = c(fr)
                if r is not None:
                    return r
            return None

        return run


class ExprStat(Node):
    """A call as a statement; the parser allows no other expression."""

    __slots__ = ("expr",)

    def __init__(self, expr, line: int):
        self.expr = expr
        self.line = line

    def compile_stmt(self, scope):
        return self.expr.compile(scope, NONE)

    def gen_stmt(self, g):
        self.expr.gen(g, NONE)


class AssignName(Node):
    __slots__ = ("name", "expr", "where")

    def __init__(self, name: str, expr, line: int):
        self.name = name
        self.expr = expr
        self.line = line
        self.where = None  # (kind, index), set when compiled

    def compile_stmt(self, scope):
        expr_c = self.expr.compile(scope)
        self.where = kind, i = scope.resolve(self.name)
        if kind == LOCAL:
            def assign(fr):
                fr[i] = expr_c(fr)
        elif kind == CELL:
            def assign(fr):
                fr[i][0] = expr_c(fr)
        elif kind == UPVAL:
            def assign(fr):
                fr[1][i][0] = expr_c(fr)
        else:
            name = self.name

            def assign(fr):
                fr[0][name] = expr_c(fr)
        return assign

    def gen_stmt(self, g):
        v = self.expr.gen(g)
        kind, i = self.where
        if kind == LOCAL:
            g.assign(i, v)
        else:
            g.emit(f"{g.variable(self)} = {v}")


def _newindex(t, key, v, line):
    try:
        t.newindex_handler(t, key, v)
    except BridgeScriptError as e:
        if e.line is None:
            e.line = line
        raise


class AssignIndex(Node):
    """t[key] = expr, and t.name = expr.  seen, once set, is a weak
    reference to the newindex fallback of the first table with one that
    the statement stored into, on closures."""

    __slots__ = ("obj", "key", "expr", "seen")

    def __init__(self, obj, key, expr, line: int):
        self.obj = obj
        self.key = key
        self.expr = expr
        self.line = line
        self.seen = None

    def compile_stmt(self, scope):
        obj_c = self.obj.compile(scope)
        line = self.line
        key_c = self.key.compile(scope)
        expr_c = self.expr.compile(scope)
        node = self

        def store(fr):
            t = obj_c(fr)
            if t.__class__ is not Table:
                raise _index_error(t, line)
            key = key_c(fr)
            if not (key.__class__ is str
                    or key.__class__ is float) or key != key:
                check_key(key, line)  # raises: nil, NaN or neither
            v = expr_c(fr)
            if t.newindex_handler is not None:
                if node.seen is None:
                    node.seen = weakref.ref(t.newindex_handler)
                _newindex(t, key, v, line)
            elif v is NIL:
                t.entries.pop(key, None)
            else:
                t.entries[key] = v

        return store

    def gen_stmt(self, g):
        line = self.line
        t = self.obj.gen(g)
        g.check_table(t, line)
        k = self.key.gen(g)
        kt = g.kind(k)
        if kt is float:
            g.emit(f"if {k} != {k}: check_key({k}, {line})")
        elif kt is not str:
            g.emit(f"if not ({k}.__class__ is str or {k}.__class__ is "
                   f"float) or {k} != {k}: check_key({k}, {line})")
        v = self.expr.gen(g)
        store = f"_newindex({t}, {k}, {v}, {line})"
        hosted = inplace.store(g, g.seen(self), _name(self.key), t, k, v,
                               store)
        g.emit(f"{'el' if hosted else ''}if {t}.newindex_handler is not "
               f"None: {store}")
        if not g.kind(v):
            g.emit(f"elif {v} is NIL: {t}.entries.pop({k}, None)")
        g.emit(f"else: {t}.entries[{k}] = {v}")


class LocalDecl(Node):
    __slots__ = ("name", "expr", "where")

    def __init__(self, name: str, expr, line: int):
        self.name = name
        self.expr = expr  # may be None
        self.line = line
        self.where = None  # (kind, slot), set when compiled

    def compile_stmt(self, scope):
        expr = self.expr
        if expr.__class__ is FunctionExpr:
            # in scope inside its own initializer, so it can recurse
            self.where = kind, slot = scope.declare(self.name)
            expr_c = expr.compile(scope)
        else:
            expr_c = _nil if expr is None else expr.compile(scope)
            self.where = kind, slot = scope.declare(self.name)
        if kind == CELL:
            # a fresh cell every time the declaration runs, made before
            # the initializer so a function literal can capture it
            def declare_cell(fr):
                fr[slot] = box = [NIL]
                box[0] = expr_c(fr)

            return declare_cell

        def declare(fr):
            fr[slot] = expr_c(fr)

        return declare

    def gen_stmt(self, g):
        kind, slot = self.where
        if kind == CELL:
            # the cell first, so a function literal can capture it
            g.assign(slot, "[NIL]")
            if self.expr is not None:
                g.emit(f"s{slot}[0] = {self.expr.gen(g)}")
        else:
            g.assign(slot, "NIL" if self.expr is None else self.expr.gen(g))


class IfStat(Node):
    __slots__ = ("clauses", "else_block")

    def __init__(self, clauses: list, else_block, line: int):
        self.clauses = clauses  # list of (cond, Block)
        self.else_block = else_block  # Block or None
        self.line = line

    def compile_stmt(self, scope):
        clauses_c = [(cond.compile(scope), block.compile(scope))
                     for cond, block in self.clauses]
        else_c = (self.else_block.compile(scope)
                  if self.else_block is not None else None)

        def run(fr):
            for cond_c, block_c in clauses_c:
                c = cond_c(fr)
                if c is not NIL and c is not False:
                    return block_c(fr)
            if else_c is not None:
                return else_c(fr)
            return None

        return run

    def gen_stmt(self, g, first=0):
        # each elseif tests inside the else of the clause before it
        cond, block = self.clauses[first]
        g.emit(f"if {g.test(cond)}:")
        known = dict(g.facts)
        g.nested(block)
        g.facts = known
        rest = first + 1 < len(self.clauses)
        if rest or self.else_block is not None:
            g.emit("else:")
            if rest:
                g.depth += 1
                self.gen_stmt(g, first + 1)
                g.depth -= 1
            else:
                g.nested(self.else_block)
        g.forget()


class WhileStat(Node):
    """A while loop.  It counts iterations across its runs and moves to
    generated code at the K-th, in the middle of the run: all its state
    is in the frame, which the generated loop loads and stores back."""

    __slots__ = ("cond", "body")

    def __init__(self, cond, body: Block, line: int):
        self.cond = cond
        self.body = body
        self.line = line

    def compile_stmt(self, scope):
        cond_c = self.cond.compile(scope)
        body_c = self.body.compile(scope)
        left = K
        hot = None
        node = self

        def run(fr):
            nonlocal left, hot
            if hot is not None:
                return hot(fr)
            while True:
                c = cond_c(fr)
                if c is NIL or c is False:
                    return None
                r = body_c(fr)
                if r is not None:
                    return r
                left -= 1
                if not left:
                    hot = _generate(node.gen_unit, node.line)
                    if hot is not None:
                        return hot(fr)

        return run

    def gen_stmt(self, g):
        depth = g.depth
        g.peel(self.body, lambda: g.test(self.cond),
               lambda: g.block(self.body))
        g.emit("while True:")
        g.depth += 1
        g.emit(f"if not ({g.test(self.cond)}): break")
        g.block(self.body)
        g.depth = depth
        g.forget()

    def gen_unit(self, g) -> str:
        self.gen_stmt(g)
        g.on_frame()
        return "fr"


class ForNum(Node):
    """A numeric for loop.  It counts iterations across its runs and
    moves to generated code at the K-th, handing over its counter,
    limit and step; the run's variable stays in the frame.  Every run
    checks its bounds and makes its variable on closures, so the
    generated loop only ever resumes one."""

    __slots__ = ("name", "start", "stop", "step", "body", "where")

    def __init__(self, name, start, stop, step, body: Block, line: int):
        self.name = name
        self.start = start
        self.stop = stop
        self.step = step  # expr or None (defaults to 1)
        self.body = body
        self.line = line
        self.where = None  # (kind, slot), set when compiled

    def compile_stmt(self, scope):
        line = self.line
        start_c = self.start.compile(scope)
        stop_c = self.stop.compile(scope)
        step_c = None if self.step is None else self.step.compile(scope)
        mark = scope.open()
        self.where = kind, slot = scope.declare(self.name)
        cell = kind == CELL
        body_c = self.body.compile(scope)
        scope.close(mark)
        left = K
        hot = None
        node = self

        def run(fr):
            nonlocal left, hot
            start = start_c(fr)
            stop = stop_c(fr)
            step = 1.0 if step_c is None else step_c(fr)
            if not (start.__class__ is float and stop.__class__ is float
                    and step.__class__ is float):
                raise ScriptRuntimeError("for bounds must be numbers", line)
            if step == 0.0:
                raise ScriptRuntimeError("for step is zero", line)
            # one variable per run of the loop: closures made in its
            # iterations share it
            if cell:
                fr[slot] = box = [NIL]
                at = 0
            else:
                box, at = fr, slot
            if hot is not None:
                return hot(fr, start, stop, step)
            i = start
            up = step > 0.0
            while i <= stop if up else i >= stop:
                box[at] = i
                r = body_c(fr)
                if r is not None:
                    return r
                i += step
                left -= 1
                if not left:
                    hot = _generate(node.gen_unit, node.line)
                    if hot is not None:
                        return hot(fr, i, stop, step)
            return None

        return run

    def gen_start(self, g) -> tuple:
        """Evaluate and check the bounds and make the run's variable;
        returns the texts of start, stop and step."""
        line = self.line
        bounds = [self.start.gen(g), self.stop.gen(g),
                  "1.0" if self.step is None else self.step.gen(g)]
        unknown = [b for b in bounds if g.kind(b) is not float]
        if unknown:
            g.emit("if " + " or ".join(f"{b}.__class__ is not float"
                                       for b in unknown)
                   + f": raise ScriptRuntimeError('for bounds must be "
                   f"numbers', {line})")
        if self.step is not None:
            g.emit(f"if {bounds[2]} == 0.0: raise ScriptRuntimeError("
                   f"'for step is zero', {line})")
        if self.where[0] == CELL:
            g.assign(self.where[1], "[NIL]")
        return bounds

    def gen_loop(self, g, i, stop, step) -> None:
        """The iterations from counter i on."""
        g.types.update(dict.fromkeys((i, stop, step), float))
        s = self.step
        if s is None or s.__class__ is NumberLit:
            cond = f"{i} <= {stop}"
        elif s.__class__ is UnaryOp and s.operand.__class__ is NumberLit:
            cond = f"{i} >= {stop}"
        else:
            cond = f"{i} <= {stop} if {step} > 0.0 else {i} >= {stop}"
        depth = g.depth
        g.peel(self.body, lambda: cond,
               lambda: self.gen_iteration(g, i, step))
        g.emit(f"while {cond}:")
        g.depth += 1
        self.gen_iteration(g, i, step)
        g.depth = depth
        g.forget()

    def gen_iteration(self, g, i, step) -> None:
        """One iteration: the variable, the body and the step."""
        kind, slot = self.where
        if kind == CELL:
            g.emit(f"{g.slot(slot)}[0] = {i}")
        else:
            g.assign(slot, i)
        g.block(self.body)
        g.emit(f"{i} += {step}")

    def gen_stmt(self, g):
        # in temporaries, since the body may assign a local they name
        i, stop, step = g.temp(), g.temp(), g.temp()
        g.emit(f"{i}, {stop}, {step} = " + ", ".join(self.gen_start(g)))
        self.gen_loop(g, i, stop, step)

    def gen_unit(self, g) -> str:
        self.gen_loop(g, "i", "stop", "step")
        g.on_frame()
        return "fr, i, stop, step"


class ReturnStat(Node):
    """return e1, ..., en: a call that ends the list gives all its values,
    and any other expression its first, as in Lua (5.1 manual §2.5)."""

    __slots__ = ("exprs",)

    def __init__(self, exprs: list, line: int):
        self.exprs = exprs
        self.line = line

    def compile_stmt(self, scope):
        exprs = self.exprs
        if not exprs or exprs[-1].__class__ is not CallExpr:
            codes = [e.compile(scope) for e in exprs]
            return lambda fr: [c(fr) for c in codes]
        codes = [e.compile(scope) for e in exprs[:-1]]
        last = exprs[-1].compile(scope, ALL)
        return lambda fr: [*[c(fr) for c in codes], *(last(fr) or _EMPTY)]

    def gen_stmt(self, g):
        exprs = self.exprs
        if g.inner:
            g.give(exprs)
            return
        vals = [e.gen(g) for e in exprs[:-1]]
        if exprs and exprs[-1].__class__ is CallExpr:
            vals.append(f"*({exprs[-1].gen(g, ALL)} or _EMPTY)")
        elif exprs:
            vals.append(exprs[-1].gen(g))
        g.emit(f"return [{', '.join(vals)}]" if vals else "return _EMPTY")


class Chunk:
    """A parsed program: the top-level statement block.  captured is the
    set of names that functions defined in it use."""

    __slots__ = ("block", "captured", "_code")

    def __init__(self, block: Block, captured: set):
        self.block = block
        self.captured = captured
        self._code = None

    def code(self):
        """The compiled chunk, a closure globals -> None | list: it calls
        the body of a function with no parameters, which tiers up as
        any function body does."""
        c = self._code
        if c is None:
            proto, _ = _proto(None, self.captured, [], self.block, 1)

            def c(globals):
                return proto.body(globals, ())

            self._code = c
        return c

    @property
    def statements(self) -> list:
        return self.block.stmts


# ------------------------------------------------------------ second tier

# Loop iterations, or calls of a function body, after which the loop or
# the body is generated as Python source.  Generating and compiling a
# unit costs about as much as 130-200 closure-tree iterations of it
# (0.1 ms for an empty while loop, 1.8-2.4 ms for perfbench's 7-line
# loop body, on a 2-vCPU VM with Python 3.11), so a unit is compiled
# once it has spent about that long on closures, and code run a few
# times never is.
K = 200

# The most nodes a function body may have to be written in place at the
# call sites that call it.
INLINE_NODES = 32


def _nodes(todo: list):
    """Every node in the list todo of nodes and blocks, nested ones and
    function literals' bodies included."""
    while todo:
        x = todo.pop()
        cls = x.__class__
        if cls is Block:
            todo += x.stmts
        elif cls is list or cls is tuple:
            todo += x
        elif isinstance(x, Node):
            yield x
            todo += [getattr(x, a) for c in cls.__mro__[:-1]
                     for a in c.__slots__]


def _small(body: Block) -> bool:
    """Whether body is small and has no loop or function literal, so a
    call site may run it written in place."""
    for n, x in enumerate(_nodes([body]), 1):
        if n > INLINE_NODES or x.__class__ in (WhileStat, ForNum,
                                               FunctionExpr):
            return False
    return True


class _Gen:
    """The source of one hot unit: a loop statement or a function body.

    Every expression becomes statements that leave its value in a fresh
    temporary, in the closure tree's order of evaluation; literals and
    locals stay inline.  Slot i is the Python local s<i>, which holds
    the cell itself when the slot is a cell.  types maps a temporary or
    literal to the class its value is known to have, facts does so for
    what checks and stores established so far, and checks that cannot
    fail are left out.

    A rich unit also writes small callees in place at the call sites
    that saw them (inlinable, inline) and peels each loop with no loop
    inside (peel); own is the body of the unit's own function, which is
    never written in place.  S, G and U name the slots, globals and
    upvals of the body being written: the unit's own, or a callee's.

    A rich unit also writes host crossings in place at the sites that
    saw one on closures (see inplace): a call of a lone host method, and
    a read or store of an instance field or an array element that missed
    on a proxy, and a call of a native function by its one-value form,
    the last also in a callee written in place (inner).  Each is guarded
    by the identity of the object the site saw, the function or the
    proxy's fallback, which the unit holds weakly and takes once on
    entry, so that a hot unit keeps no dropped bridge or interpreter
    alive.  inlined, peeled, hosted and natives count the sites and
    loops, for tools.
    """

    def __init__(self, rich: bool):
        self.lines = []
        self.depth = 1
        self.n = 0
        self.env = dict(_GEN_ENV)
        self.types = {}
        self.facts = {}  # what checks so far established, as types
        self.locals = set()  # the slots named
        self.rich = rich
        # while a callee is written in place (inner): the temporary of its
        # first value and whether it returns early (see inline and give)
        self.inner = self.early = False
        self.result = None
        self.own = None
        self.S, self.G, self.U = "s", "G", "U"
        self.assigned = set()  # the slot names assign was given
        self.inlined = self.peeled = self.hosted = self.natives = 0
        self.held = {}  # the objects held (see inplace.hold)

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def temp(self, cls=None) -> str:
        self.n += 1
        t = f"t{self.n}"
        if cls is not None:
            self.types[t] = cls
        return t

    def const(self, value) -> str:
        self.n += 1
        name = f"k{self.n}"
        self.env[name] = value
        return name

    def literal(self, value) -> str:
        if value.__class__ is float and not isfinite(value):
            text = self.const(value)
        else:
            text = repr(value)
            if text[0] == "-":
                text = f"({text})"
        self.types[text] = value.__class__
        return text

    def kind(self, text: str):
        """The class text's value is known to have, or None."""
        return self.types.get(text) or self.facts.get(text)

    def forget(self) -> None:
        """Where control flow joins, only what always holds is known."""
        self.facts = {}

    def slot(self, i: int) -> str:
        """The Python local of slot i."""
        self.locals.add(i)
        return f"{self.S}{i}"

    def assign(self, slot: int, v: str) -> None:
        """Store v in slot; what is known of v is now known of it."""
        s = self.slot(slot)
        self.assigned.add(s)
        self.emit(f"{s} = {v}")
        t = self.kind(v)
        if t is None:
            self.facts.pop(s, None)
        else:
            self.facts[s] = t

    def check_table(self, t: str, line: int) -> None:
        if self.kind(t) is not Table:
            self.emit(f"if {t}.__class__ is not Table: "
                      f"raise _index_error({t}, {line})")
            self.facts[t] = Table

    def index(self, t: str, k: str, line: int, site=None) -> str:
        """The value of key k in table t, fallback included; site, if
        given, is the read, which may read a host field or element in
        place (see inplace)."""
        if self.kind(k) not in (str, float):
            self.emit(f"if {k}.__class__ is not str and {k}.__class__ is "
                      f"not float: check_key({k}, {line})")
        v = self.temp()
        self.emit(f"{v} = {t}.entries.get({k}, _MISS)")
        fallback = f"{v} = _index_fallback({t}, {k}, {line})"
        if site is None or not inplace.read(
                self, self.seen(site), _name(site.key), t, k, v, fallback):
            self.emit(f"if {v} is _MISS: {fallback}")
        return v

    def seen(self, site):
        """What site recorded on closures, while it lives, in a rich
        unit; else None.  Inside a callee written in place, only a native
        function with a one-value form, which writes no body in place."""
        seen = site.seen
        seen = seen() if seen is not None and self.rich else None
        if self.inner and getattr(seen, "one", None) is None:
            return None
        return seen

    def variable(self, node) -> str:
        """Where a VarExpr or AssignName's name lives, as an lvalue."""
        kind, i = node.where
        if kind == LOCAL:
            return self.slot(i)
        if kind == CELL:
            return f"{self.slot(i)}[0]"
        if kind == UPVAL:
            return f"{self.U}[{i}][0]"
        if node.__class__ is VarExpr:
            return f"{self.G}.get({node.name!r}, NIL)"
        return f"{self.G}[{node.name!r}]"

    def test(self, expr) -> str:
        """A Python condition: expr's value is neither nil nor false."""
        v = expr.gen(self)
        t = self.kind(v)
        if t is bool:
            return v
        if t is not None:
            return "True"  # a number, string, table or function
        return f"{v} is not NIL and {v} is not False"

    def block(self, block) -> None:
        start = len(self.lines)
        for s in block.stmts:
            s.gen_stmt(self)
        if len(self.lines) == start:
            self.emit("pass")

    def nested(self, block) -> None:
        self.depth += 1
        self.block(block)
        self.depth -= 1

    def inlinable(self, site, n: int, want):
        """The body to write in place of site, a call with n arguments
        that wants one value or none: that of the function whose closure
        the site called first on closures, while it lives, takes n
        parameters and is small (see _small); else None."""
        proto = self.seen(site)
        if proto.__class__ is not Proto or want is ALL or proto.nparams != n \
                or proto.tree is self.own or not _small(proto.tree):
            return None
        return proto.tree

    def inline(self, tree, f: str, args: list, result) -> None:
        """Write tree, a callee's body, one level deeper, as closure f
        would run it with args: its slots are fresh Python locals, its
        globals and upvals f's, and its first return value goes to the
        temporary result, unless that is None.  A body that returns
        before its end runs inside `while True:`, and each return leaves
        it by `break`: the language has no break and a small body no
        loop, so nothing else can.  The facts known here hold again
        after it, since it cannot assign what they name."""
        saved = self.facts, self.locals, self.S, self.G, self.U
        # one level only: no callee is written into a callee
        self.facts, self.locals, self.inner = dict(self.facts), set(), True
        self.n += 1
        self.S, self.G, self.U = f"i{self.n}s", f"{f}.globals", f"{f}.upvals"
        self.depth += 1
        start = len(self.lines)
        for i, a in enumerate(args, 2):
            self.assign(i, a)
        stmts = tree.stmts
        last = stmts[-1] if stmts else None
        self.result = result
        self.early = any(x.__class__ is ReturnStat and x is not last
                         for x in _nodes([tree]))
        if self.early:
            self.emit("while True:")
            self.depth += 1
        for s in stmts:
            s.gen_stmt(self)
        if last.__class__ is not ReturnStat:
            self.give(())  # the end of the body
        if len(self.lines) == start:
            self.emit("pass")
        self.depth -= 1 + self.early
        self.facts, self.locals, self.S, self.G, self.U = saved
        self.inner = False
        self.inlined += 1

    def give(self, exprs) -> None:
        """A return of exprs from the callee being written in place: its
        first value goes to the site, and an early return leaves the
        body's wrapper (see inline)."""
        vals = [e.gen(self) if e.__class__ is not CallExpr
                else e.gen(self, ONE if k == 0 and self.result else NONE)
                for k, e in enumerate(exprs)]
        if self.result is not None:
            self.emit(f"{self.result} = {vals[0] if vals else 'NIL'}")
        if self.early:
            self.emit("break")

    def peel(self, body, head, iteration) -> None:
        """Open a loop with this body.  In a rich unit and when body has
        no loop inside, so that its code at most doubles, the loop's first
        iteration, written by iteration(), runs with every check if the
        Python condition head() holds, and the rest of the loop goes one
        level deeper, after it, and keeps what it established of the slots
        the loop never assigns.  Else nothing is known at the loop head."""
        if not self.rich or any(x.__class__ in (WhileStat, ForNum)
                                for x in _nodes([body])):
            self.forget()
            return
        self.emit(f"if {head()}:")
        self.depth += 1
        outer, self.assigned = self.assigned, set()
        iteration()
        self.facts = {k: v for k, v in self.facts.items()
                      if k not in self.assigned}
        self.assigned |= outer
        self.peeled += 1

    def on_frame(self) -> None:
        """End a loop unit, which works on its caller's frame: it loads
        globals, upvals and the slots it names on entry and stores the
        slots back here, at its normal end."""
        slots = sorted(self.locals)
        self.lines[:0] = ["    G, U = fr[0], fr[1]",
                          *[f"    s{i} = fr[{i}]" for i in slots]]
        for i in slots:
            self.emit(f"fr[{i}] = s{i}")

    def function(self, params: str) -> str:
        return "\n".join([f"def run({params}):", *inplace.entry(self.held),
                          *self.lines]) + "\n"


_GEN_ENV = {
    "NIL": NIL, "Table": Table, "Closure": Closure,
    "NativeFunction": NativeFunction, "BridgeScriptError": BridgeScriptError,
    "ScriptRuntimeError": ScriptRuntimeError, "check_key": check_key,
    "script_equals": script_equals, "_MISS": _MISS, "_EMPTY": _EMPTY,
    "_index_error": _index_error, "_index_fallback": _index_fallback,
    "_call_error": _call_error, "_arith_error": _arith_error,
    "_compare_error": _compare_error, "_divide": _divide,
    "_concat": _concat, "_newindex": _newindex,
}


def _generate(gen_unit, line: int):
    """A unit's second tier: the function compiled from the source that
    gen_unit writes, rich and else plain, or None when Python refuses
    both (too many nested blocks or indent levels, or too deep to
    compile)."""
    for rich in (True, False):
        g = _Gen(rich)
        try:
            params = gen_unit(g)
            exec(compile(g.function(params), f"<line {line}>", "exec"),
                 g.env)
        except (SyntaxError, RecursionError, MemoryError):
            continue
        return g.env.pop("run")  # env keeps no reference back to it
    return None
