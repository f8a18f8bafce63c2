"""AST nodes and their compilation to Python closures.

Nodes do not evaluate themselves directly.  Each expression compiles
once into a closure frame -> value, and each statement into a closure
frame -> None | list, where a list is the in-flight result of a return
statement; block runners propagate it upward.

Variables are resolved while compiling, by a Scope per function body.
A frame is the list [globals, upvals, slot, slot, ...] (see objects):
each local, parameter and for variable gets a slot, which later blocks
reuse once its own block has ended.  A name that no enclosing scope
declares is a global, read and written straight in the globals dict.
The parser tells each function body which names its nested functions
use; a local with such a name lives in its slot as a cell, a
one-element list, and a nested function copies the cells it needs into
its closure's upvals when the closure is made.  A local is in scope
from the statement after its declaration, except that a local whose
initializer is a function literal is already in scope inside it, so
local functions can recurse.

Every node carries the line of its first token.  unparse() emits source
that parses back to a structurally identical tree (lines aside).
Statement sequences are joined with semicolons so that adjacent
statements cannot merge when reparsed.
"""

import operator
from math import copysign

from .errors import BridgeScriptError, NotCallable, ScriptRuntimeError
from .objects import (
    NIL,
    Closure,
    NativeFunction,
    Table,
    check_key,
    format_number,
    script_equals,
    type_name,
)

_MISS = object()
_EMPTY: list = []

_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}

# where Scope.resolve finds a name
LOCAL, CELL, UPVAL, GLOBAL = range(4)
_GLOBAL = (GLOBAL, None)


def quote_string(s: str) -> str:
    return '"' + "".join(_ESCAPES.get(c, c) for c in s) + '"'


def _is_plain_ident(s: str) -> bool:
    from .lexer import KEYWORDS

    return bool(s) and not s[0].isdigit() and set(s) <= _IDENT_OK and s not in KEYWORDS


def _wrap_postfixable(node) -> str:
    """Parenthesize expressions that cannot be an index or call base as-is."""
    text = node.unparse()
    if isinstance(node, (VarExpr, IndexExpr, CallExpr)):
        return text
    return "(" + text + ")"


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

class NumberLit(Node):
    __slots__ = ("value",)

    def __init__(self, value: float, line: int):
        self.value = value
        self.line = line

    def compile(self, scope):
        v = self.value
        return lambda fr: v

    def unparse(self) -> str:
        return repr(self.value)


class StringLit(Node):
    __slots__ = ("value",)

    def __init__(self, value: str, line: int):
        self.value = value
        self.line = line

    def compile(self, scope):
        v = self.value
        return lambda fr: v

    def unparse(self) -> str:
        return quote_string(self.value)


class BoolLit(Node):
    __slots__ = ("value",)

    def __init__(self, value: bool, line: int):
        self.value = value
        self.line = line

    def compile(self, scope):
        v = self.value
        return lambda fr: v

    def unparse(self) -> str:
        return "true" if self.value else "false"


class NilLit(Node):
    __slots__ = ()

    def __init__(self, line: int):
        self.line = line

    def compile(self, scope):
        return _nil

    def unparse(self) -> str:
        return "nil"


def _nil(fr):
    return NIL


class VarExpr(Node):
    __slots__ = ("name",)

    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line

    def compile(self, scope):
        kind, i = scope.resolve(self.name)
        if kind == LOCAL:
            return operator.itemgetter(i)
        if kind == CELL:
            return lambda fr: fr[i][0]
        if kind == UPVAL:
            return lambda fr: fr[1][i][0]
        name = self.name
        return lambda fr: fr[0].get(name, NIL)

    def unparse(self) -> str:
        return self.name


def _index_fallback(t, key, line):
    handler = t.index_handler
    if handler is None:
        return NIL
    try:
        vals = handler.invoke([t, key])
    except BridgeScriptError as e:
        if e.line is None:
            e.line = line
        raise
    return vals[0] if vals else NIL


class IndexExpr(Node):
    __slots__ = ("obj", "key")

    def __init__(self, obj, key, line: int):
        self.obj = obj
        self.key = key
        self.line = line

    def compile(self, scope):
        obj_c = self.obj.compile(scope)
        line = self.line
        if self.key.__class__ is StringLit:
            key = self.key.value

            def index_const(fr):
                t = obj_c(fr)
                if t.__class__ is not Table:
                    raise ScriptRuntimeError(
                        f"attempt to index a {type_name(t)} value", line)
                v = t.entries.get(key, _MISS)
                if v is not _MISS:
                    return v
                return _index_fallback(t, key, line)

            return index_const
        key_c = self.key.compile(scope)

        def index(fr):
            t = obj_c(fr)
            if t.__class__ is not Table:
                raise ScriptRuntimeError(
                    f"attempt to index a {type_name(t)} value", line)
            key = key_c(fr)
            if key.__class__ is str or key.__class__ is float:
                v = t.entries.get(key, _MISS)
                if v is not _MISS:
                    return v
                return _index_fallback(t, key, line)
            check_key(key, line)  # raises: nil or not a string or number

        return index

    def unparse(self) -> str:
        base = _wrap_postfixable(self.obj)
        if isinstance(self.key, StringLit) and _is_plain_ident(self.key.value):
            return f"{base}.{self.key.value}"
        return f"{base}[{self.key.unparse()}]"


class CallExpr(Node):
    """A call.  Python running out of stack inside it, as unbounded
    script recursion does, becomes a ScriptRuntimeError at its line."""

    __slots__ = ("callee", "args")

    def __init__(self, callee, args: list, line: int):
        self.callee = callee
        self.args = args
        self.line = line

    def compile(self, scope):
        line = self.line
        callee = self.callee
        # recv.name(recv, ...) with a bare-name receiver is what colon
        # calls desugar to; fuse it so the receiver is read once.
        if (callee.__class__ is IndexExpr
                and callee.key.__class__ is StringLit
                and callee.obj.__class__ is VarExpr
                and self.args
                and self.args[0].__class__ is VarExpr
                and self.args[0].name == callee.obj.name):
            recv_c = callee.obj.compile(scope)
            mname = callee.key.value
            rest_c = tuple(a.compile(scope) for a in self.args[1:])

            def method_call(fr):
                recv = recv_c(fr)
                if recv.__class__ is not Table:
                    raise ScriptRuntimeError(
                        f"attempt to index a {type_name(recv)} value", line)
                f = recv.entries.get(mname, _MISS)
                if f is _MISS:
                    f = _index_fallback(recv, mname, line)
                args = [recv]
                for c in rest_c:
                    args.append(c(fr))
                cls = f.__class__
                try:
                    if cls is Closure:
                        vals = f.invoke(args)
                    elif cls is NativeFunction:
                        vals = f.fn(args)
                    else:
                        raise NotCallable(
                            f"attempt to call a {type_name(f)} value", line)
                except BridgeScriptError as e:
                    if e.line is None:
                        e.line = line
                    raise
                except RecursionError:
                    raise ScriptRuntimeError("stack overflow", line) from None
                return vals[0] if vals else NIL

            return method_call

        callee_c = callee.compile(scope)
        if not self.args:
            def call0(fr):
                f = callee_c(fr)
                cls = f.__class__
                try:
                    if cls is Closure:
                        # the frame invoke would build, minus one Python
                        # call; bench.py's native loop times this call
                        if not f.nparams:
                            vals = f.body([f.globals, f.upvals, *f.pad])
                        else:
                            vals = f.invoke(_EMPTY)
                    elif cls is NativeFunction:
                        vals = f.fn([])
                    else:
                        raise NotCallable(
                            f"attempt to call a {type_name(f)} value", line)
                except BridgeScriptError as e:
                    if e.line is None:
                        e.line = line
                    raise
                except RecursionError:
                    raise ScriptRuntimeError("stack overflow", line) from None
                return vals[0] if vals else NIL

            return call0
        args_c = tuple(a.compile(scope) for a in self.args)

        def call(fr):
            f = callee_c(fr)
            args = []
            for c in args_c:
                args.append(c(fr))
            cls = f.__class__
            try:
                if cls is Closure:
                    vals = f.invoke(args)
                elif cls is NativeFunction:
                    vals = f.fn(args)
                else:
                    raise NotCallable(
                        f"attempt to call a {type_name(f)} value", line)
            except BridgeScriptError as e:
                if e.line is None:
                    e.line = line
                raise
            except RecursionError:
                raise ScriptRuntimeError("stack overflow", line) from None
            return vals[0] if vals else NIL

        return call

    def unparse(self) -> str:
        callee = _wrap_postfixable(self.callee)
        return f"{callee}({', '.join(a.unparse() for a in self.args)})"


class FunctionExpr(Node):
    """A function literal.  captured is the set of names that functions
    nested in its body use, recorded by the parser."""

    __slots__ = ("params", "body", "captured")

    def __init__(self, params: list[str], body: "Block", line: int,
                 captured: set):
        self.params = params
        self.body = body
        self.line = line
        self.captured = captured

    def compile(self, scope):
        inner = Scope(scope, self.captured)
        cells = []
        for name in self.params:
            kind, slot = inner.declare(name)
            if kind == CELL:
                cells.append(slot)
        body_c = self.body.compile(inner)
        n = len(self.params)
        pad = (NIL,) * (inner.size - 2 - n)
        if cells:
            # parameters that nested functions use are boxed on entry
            run_body = body_c

            def body_c(fr):
                for i in cells:
                    fr[i] = [fr[i]]
                return run_body(fr)

        sources = inner.sources

        def make(fr):
            upvals = ()
            if sources:
                up = fr[1]
                upvals = tuple([fr[i] if i >= 0 else up[~i] for i in sources])
            return Closure(body_c, n, pad, upvals, fr[0])

        return make

    def unparse(self) -> str:
        return f"function({', '.join(self.params)}) {self.body.unparse()} end"


class TableCtor(Node):
    __slots__ = ("fields",)

    def __init__(self, fields: list, line: int):
        self.fields = fields  # list of (name, expr)
        self.line = line

    def compile(self, scope):
        fields_c = tuple((name, expr.compile(scope))
                         for name, expr in self.fields)

        def make(fr):
            t = Table()
            entries = t.entries
            for name, c in fields_c:
                v = c(fr)
                if v is not NIL:
                    entries[name] = v
            return t

        return make

    def unparse(self) -> str:
        inner = ", ".join(f"{k} = {e.unparse()}" for k, e in self.fields)
        return "{" + inner + "}"


class ColonCall(Node):
    """Transient parse form of recv:name(args); never survives parsing."""

    __slots__ = ("recv", "name", "args")

    def __init__(self, recv, name: str, args: list, line: int):
        self.recv = recv
        self.name = name
        self.args = args
        self.line = line


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


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": _divide}
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge}


def _arith(fn, lc, right, scope, line):
    """Numbers only; a literal number on the right is read once here."""
    if right.__class__ is NumberLit:
        k = right.value

        def arith_k(fr):
            l = lc(fr)
            if l.__class__ is float:
                return fn(l, k)
            raise _arith_error(l, k, line)

        return arith_k
    rc = right.compile(scope)

    def arith(fr):
        l = lc(fr)
        r = rc(fr)
        if l.__class__ is float and r.__class__ is float:
            return fn(l, r)
        raise _arith_error(l, r, line)

    return arith


def _order(fn, lc, right, scope, line):
    """Two numbers or two strings; a literal on the right is read once."""
    if right.__class__ is NumberLit or right.__class__ is StringLit:
        k = right.value
        kc = k.__class__

        def order_k(fr):
            l = lc(fr)
            if l.__class__ is kc:
                return fn(l, k)
            raise _compare_error(l, k, line)

        return order_k
    rc = right.compile(scope)

    def order(fr):
        l = lc(fr)
        r = rc(fr)
        c = l.__class__
        if c is r.__class__ and (c is float or c is str):
            return fn(l, r)
        raise _compare_error(l, r, line)

    return order


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
        if op in _ARITH:
            return _arith(_ARITH[op], lc, self.right, scope, line)
        if op in _ORDER:
            return _order(_ORDER[op], lc, self.right, scope, line)
        rc = self.right.compile(scope)
        if op == "==":
            return lambda fr: script_equals(lc(fr), rc(fr))
        if op == "~=":
            return lambda fr: not script_equals(lc(fr), rc(fr))

        def concat(fr):
            l = lc(fr)
            r = rc(fr)
            lt = l if l.__class__ is str else (
                format_number(l) if l.__class__ is float else None)
            rt = r if r.__class__ is str else (
                format_number(r) if r.__class__ is float else None)
            if lt is not None and rt is not None:
                return lt + rt
            bad = l if lt is None else r
            raise ScriptRuntimeError(
                f"attempt to concatenate a {type_name(bad)} value", line)

        return concat

    def unparse(self) -> str:
        return f"({self.left.unparse()} {self.op} {self.right.unparse()})"


class UnaryOp(Node):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand, line: int):
        self.op = op
        self.operand = operand
        self.line = line

    def compile(self, scope):
        c = self.operand.compile(scope)
        line = self.line

        def neg(fr):
            v = c(fr)
            if v.__class__ is float:
                return -v
            raise ScriptRuntimeError(
                f"attempt to perform arithmetic on a {type_name(v)} value",
                line)

        return neg

    def unparse(self) -> str:
        return f"(-{self.operand.unparse()})"


# -------------------------------------------------------------- statements

class Block:
    __slots__ = ("stmts",)

    def __init__(self, stmts: list):
        self.stmts = stmts

    def compile(self, scope):
        """Sequence closure; the block's locals go out of scope at its end."""
        mark = scope.open()
        codes = [s.compile_stmt(scope) for s in self.stmts]
        scope.close(mark)
        if not codes:
            return lambda fr: None
        if len(codes) == 1:
            return codes[0]
        if len(codes) == 2:
            c0, c1 = codes

            def run2(fr):
                r = c0(fr)
                if r is not None:
                    return r
                return c1(fr)

            return run2
        codes_t = tuple(codes)

        def run(fr):
            for c in codes_t:
                r = c(fr)
                if r is not None:
                    return r
            return None

        return run

    def unparse(self) -> str:
        return "; ".join(s.unparse() for s in self.stmts)


class ExprStat(Node):
    __slots__ = ("expr",)

    def __init__(self, expr, line: int):
        self.expr = expr
        self.line = line

    def compile_stmt(self, scope):
        c = self.expr.compile(scope)

        def run(fr):
            c(fr)

        return run

    def unparse(self) -> str:
        return self.expr.unparse()


class AssignName(Node):
    __slots__ = ("name", "expr")

    def __init__(self, name: str, expr, line: int):
        self.name = name
        self.expr = expr
        self.line = line

    def compile_stmt(self, scope):
        expr_c = self.expr.compile(scope)
        kind, i = scope.resolve(self.name)
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

    def unparse(self) -> str:
        return f"{self.name} = {self.expr.unparse()}"


class AssignIndex(Node):
    __slots__ = ("obj", "key", "expr")

    def __init__(self, obj, key, expr, line: int):
        self.obj = obj
        self.key = key
        self.expr = expr
        self.line = line

    def compile_stmt(self, scope):
        obj_c = self.obj.compile(scope)
        line = self.line
        const_key = self.key.value if self.key.__class__ is StringLit else None
        key_c = None if const_key is not None else self.key.compile(scope)
        expr_c = self.expr.compile(scope)

        def store(fr):
            t = obj_c(fr)
            if t.__class__ is not Table:
                raise ScriptRuntimeError(
                    f"attempt to index a {type_name(t)} value", line)
            if const_key is not None:
                key = const_key
            else:
                key = key_c(fr)
                if not (key.__class__ is str
                        or key.__class__ is float) or key != key:
                    check_key(key, line)  # raises: nil, NaN or neither
            v = expr_c(fr)
            handler = t.newindex_handler
            if handler is not None:
                try:
                    handler.invoke([t, key, v])
                except BridgeScriptError as e:
                    if e.line is None:
                        e.line = line
                    raise
                return None
            if v is NIL:
                t.entries.pop(key, None)
            else:
                t.entries[key] = v
            return None

        return store

    def unparse(self) -> str:
        base = _wrap_postfixable(self.obj)
        if isinstance(self.key, StringLit) and _is_plain_ident(self.key.value):
            return f"{base}.{self.key.value} = {self.expr.unparse()}"
        return f"{base}[{self.key.unparse()}] = {self.expr.unparse()}"


class LocalDecl(Node):
    __slots__ = ("name", "expr")

    def __init__(self, name: str, expr, line: int):
        self.name = name
        self.expr = expr  # may be None
        self.line = line

    def compile_stmt(self, scope):
        expr = self.expr
        if expr.__class__ is FunctionExpr:
            # in scope inside its own initializer, so it can recurse
            kind, slot = scope.declare(self.name)
            expr_c = expr.compile(scope)
        else:
            expr_c = _nil if expr is None else expr.compile(scope)
            kind, slot = scope.declare(self.name)
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

    def unparse(self) -> str:
        if self.expr is None:
            return f"local {self.name}"
        return f"local {self.name} = {self.expr.unparse()}"


class IfStat(Node):
    __slots__ = ("clauses", "else_block")

    def __init__(self, clauses: list, else_block, line: int):
        self.clauses = clauses  # list of (cond, Block)
        self.else_block = else_block  # Block or None
        self.line = line

    def compile_stmt(self, scope):
        clauses_c = tuple(
            (cond.compile(scope), block.compile(scope))
            for cond, block in self.clauses)
        else_c = (self.else_block.compile(scope)
                  if self.else_block is not None else None)
        if len(clauses_c) == 1:
            (cond_c, block_c), = clauses_c
            if else_c is None:
                def run_if(fr):
                    c = cond_c(fr)
                    if c is not NIL and c is not False:
                        return block_c(fr)
                    return None
                return run_if

            def run_if_else(fr):
                c = cond_c(fr)
                if c is not NIL and c is not False:
                    return block_c(fr)
                return else_c(fr)
            return run_if_else

        def run(fr):
            for cond_c, block_c in clauses_c:
                c = cond_c(fr)
                if c is not NIL and c is not False:
                    return block_c(fr)
            if else_c is not None:
                return else_c(fr)
            return None

        return run

    def unparse(self) -> str:
        parts = []
        for i, (cond, block) in enumerate(self.clauses):
            word = "if" if i == 0 else "elseif"
            parts.append(f"{word} {cond.unparse()} then {block.unparse()}")
        if self.else_block is not None:
            parts.append(f"else {self.else_block.unparse()}")
        return " ".join(parts) + " end"


class WhileStat(Node):
    __slots__ = ("cond", "body")

    def __init__(self, cond, body: Block, line: int):
        self.cond = cond
        self.body = body
        self.line = line

    def compile_stmt(self, scope):
        cond_c = self.cond.compile(scope)
        body_c = self.body.compile(scope)

        def run(fr):
            while True:
                c = cond_c(fr)
                if c is NIL or c is False:
                    return None
                r = body_c(fr)
                if r is not None:
                    return r

        return run

    def unparse(self) -> str:
        return f"while {self.cond.unparse()} do {self.body.unparse()} end"


class ForNum(Node):
    __slots__ = ("name", "start", "stop", "step", "body")

    def __init__(self, name, start, stop, step, body: Block, line: int):
        self.name = name
        self.start = start
        self.stop = stop
        self.step = step  # expr or None (defaults to 1)
        self.body = body
        self.line = line

    def compile_stmt(self, scope):
        line = self.line
        start_c = self.start.compile(scope)
        stop_c = self.stop.compile(scope)
        step_c = None if self.step is None else self.step.compile(scope)
        mark = scope.open()
        kind, slot = scope.declare(self.name)
        cell = kind == CELL
        body_c = self.body.compile(scope)
        scope.close(mark)

        def run(fr):
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
            i = start
            if step > 0.0:
                while i <= stop:
                    box[at] = i
                    r = body_c(fr)
                    if r is not None:
                        return r
                    i += step
            else:
                while i >= stop:
                    box[at] = i
                    r = body_c(fr)
                    if r is not None:
                        return r
                    i += step
            return None

        return run

    def unparse(self) -> str:
        head = f"for {self.name} = {self.start.unparse()}, {self.stop.unparse()}"
        if self.step is not None:
            head += f", {self.step.unparse()}"
        return f"{head} do {self.body.unparse()} end"


class ReturnStat(Node):
    __slots__ = ("exprs",)

    def __init__(self, exprs: list, line: int):
        self.exprs = exprs
        self.line = line

    def compile_stmt(self, scope):
        if not self.exprs:
            return lambda fr: _EMPTY
        if len(self.exprs) == 1:
            c0 = self.exprs[0].compile(scope)
            return lambda fr: [c0(fr)]
        codes = tuple(e.compile(scope) for e in self.exprs)
        return lambda fr: [c(fr) for c in codes]

    def unparse(self) -> str:
        if not self.exprs:
            return "return"
        return "return " + ", ".join(e.unparse() for e in self.exprs)


class Chunk:
    """A parsed program: the top-level statement block.  captured is the
    set of names that functions defined in it use."""

    __slots__ = ("block", "captured", "_code")

    def __init__(self, block: Block, captured: set):
        self.block = block
        self.captured = captured
        self._code = None

    def code(self):
        """The compiled chunk, a closure globals -> None | list."""
        c = self._code
        if c is None:
            scope = Scope(None, self.captured)
            body = self.block.compile(scope)
            pad = (NIL,) * (scope.size - 2)

            def c(globals):
                return body([globals, (), *pad])

            self._code = c
        return c

    @property
    def statements(self) -> list:
        return self.block.stmts

    def unparse(self) -> str:
        return self.block.unparse()
