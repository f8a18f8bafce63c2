"""Recursive descent parser with precedence climbing for expressions.

The grammar is a small table-and-closure language: assignments, local
declarations, table constructors with named fields, function and method
definitions, if/while/numeric-for, return, and expressions over the
arithmetic, comparison and concatenation operators.

Tokens are the lexer's (kind, lexeme, line) tuples, read by position
or unpacking.  The parser reads through one cursor, self.tok, over a
copy of the token list that ends in the sentinel (<eof>, <eof>, line),
whose lexeme the lexer never produces; the caller's list is left as it
is.  Keywords, operators and marks are matched by their text alone: no
identifier, number or string lexeme can equal one.  All binary operators
are parsed by one loop, _expression, over the binding strengths in
_BINARY: comparison 1, .. 2 (right associative), + - 3, * / 4; unary
minus binds tighter than all of them.

Colon calls and method definitions are sugar and never survive parsing:
    recv:name(args)        becomes recv["name"](recv, args...)
    function t:m(p) ... end becomes t["m"] = function(self, p) ... end
When the receiver of a colon call is not a bare name it is evaluated
exactly once, by binding it to the parameter of an immediately applied
closure.  Generated parameter names use the reserved __recv prefix.

While it builds a function body the parser collects the variable names
used anywhere inside it.  Each FunctionExpr and the Chunk record the
names used by the functions nested in their body (captured), which is
all the compiler needs to know which locals to keep in cells.  The
closure a colon call desugars to counts as a nested body, since its
arguments move into it.
"""

import itertools

from .errors import ParseError
from .lexer import IDENT, NUMBER, STRING, tokenize
from .nodes import (
    AssignIndex,
    AssignName,
    BinOp,
    Block,
    BoolLit,
    CallExpr,
    Chunk,
    ColonCall,
    ExprStat,
    ForNum,
    FunctionExpr,
    IfStat,
    IndexExpr,
    LocalDecl,
    NilLit,
    NumberLit,
    ReturnStat,
    StringLit,
    TableCtor,
    UnaryOp,
    VarExpr,
    WhileStat,
)

_temp_id = itertools.count().__next__

_EOF = "<eof>"

# binary operator -> binding strength; .. is the right-associative one,
# and unary minus binds tighter than all of them
_BINARY = {
    "==": 1, "~=": 1, "<": 1, ">": 1, "<=": 1, ">=": 1,
    "..": 2,
    "+": 3, "-": 3,
    "*": 4, "/": 4,
}
_UNARY = 5

_BLOCK_ENDS = frozenset(("end",))
_IF_ENDS = frozenset(("elseif", "else", "end"))
_RETURN_ENDS = frozenset(("end", "else", "elseif", ";", _EOF))

_SIMPLE_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}


def parse(tokens: list) -> Chunk:
    """Parse a token stream into a fully desugared Chunk."""
    p = _Parser(tokens)
    try:
        return p.parse_chunk()
    except RecursionError:
        # nesting deep enough to exhaust Python's stack
        pass
    p._error("less deeply nested code")


def parse_source(source: str) -> Chunk:
    return parse(tokenize(source))


def desugar_colon_call(node: ColonCall, captured: set) -> CallExpr:
    """Rewrite a colon call into core form, evaluating the receiver once.

    A bare-name receiver is referenced twice directly, which is safe; any
    other receiver is passed into a one-parameter closure so that side
    effects of computing it happen a single time.  captured is the set
    of names used by functions nested in the arguments.
    """
    line = node.line
    key = StringLit(node.name, line)
    recv = node.recv
    if isinstance(recv, VarExpr):
        callee = IndexExpr(VarExpr(recv.name, line), key, line)
        return CallExpr(callee, [VarExpr(recv.name, line)] + node.args, line)
    tmp = f"__recv{_temp_id()}"
    inner = CallExpr(
        IndexExpr(VarExpr(tmp, line), key, line),
        [VarExpr(tmp, line)] + node.args,
        line,
    )
    fn = FunctionExpr([tmp], Block([ReturnStat([inner], line)]), line,
                      captured)
    return CallExpr(fn, [recv], line)


def _decode_string(lexeme: str, line: int) -> str:
    body = lexeme[1:-1]
    if "\\" not in body:
        return body
    out = []
    i = 0
    n = len(body)
    while i < n:
        c = body[i]
        if c == "\\" and i + 1 < n:
            nxt = body[i + 1]
            out.append(_SIMPLE_ESCAPES.get(nxt, nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


class _Parser:
    def __init__(self, tokens: list):
        line = tokens[-1][2] if tokens else 1
        self.end = (_EOF, _EOF, line)
        self._next = iter([*tokens, self.end]).__next__
        self.tok = self._next()  # the cursor: the next unconsumed token
        self.used: set = set()  # names used in the innermost open body
        self.nested: set = set()  # names used by functions nested in it
        self.outer: list = []  # (used, nested) of the enclosing bodies

    # ------------------------------------------------------------ plumbing

    def _advance(self) -> tuple:
        tok = self.tok
        self.tok = self._next()
        return tok

    def _accept(self, text: str) -> tuple | None:
        if self.tok[1] == text:
            return self._advance()
        return None

    def _expect(self, text: str) -> tuple:
        if self.tok[1] != text:
            self._error(f"'{text}'")
        return self._advance()

    def _name(self) -> str:
        if self.tok[0] != IDENT:
            self._error(IDENT)
        return self._advance()[1]

    def _error(self, expected: str):
        tok = self.tok
        found = "end of input" if tok is self.end else f"'{tok[1]}'"
        raise ParseError(tok[2], expected, found)

    def _open_body(self) -> None:
        self.outer.append((self.used, self.nested))
        self.used = set()
        self.nested = set()

    def _close_body(self) -> set:
        """End a nested body; returns the names its own nested bodies use."""
        used, captured = self.used, self.nested
        self.used, self.nested = self.outer.pop()
        self.used |= used
        self.nested |= used
        return captured

    # ----------------------------------------------------------- statements

    def parse_chunk(self) -> Chunk:
        return Chunk(self._block(frozenset((_EOF,))), self.nested)

    def _block(self, terminators: frozenset) -> Block:
        stmts = []
        while self.tok[1] not in terminators:
            if self.tok is self.end:
                self._error("'" + "' or '".join(sorted(terminators)) + "'")
            if not self._accept(";"):
                stmts.append(self._statement())
        return Block(stmts)

    def _statement(self):
        line = self.tok[2]
        keyword = _STATEMENTS.get(self.tok[1])
        if keyword is not None:
            return keyword(self)
        expr = self._expression()
        if self._accept("="):
            value = self._expression()
            if isinstance(expr, VarExpr):
                return AssignName(expr.name, value, line)
            if isinstance(expr, IndexExpr):
                return AssignIndex(expr.obj, expr.key, value, line)
            raise ParseError(line, "an assignable target", "an expression")
        return ExprStat(expr, line)

    def _local_stat(self):
        line = self._advance()[2]
        name = self._name()
        expr = self._expression() if self._accept("=") else None
        return LocalDecl(name, expr, line)

    def _if_stat(self):
        line = self._advance()[2]
        clauses = []
        while True:
            cond = self._expression()
            self._expect("then")
            clauses.append((cond, self._block(_IF_ENDS)))
            if not self._accept("elseif"):
                break
        else_block = self._block(_BLOCK_ENDS) if self._accept("else") else None
        self._expect("end")
        return IfStat(clauses, else_block, line)

    def _while_stat(self):
        line = self._advance()[2]
        cond = self._expression()
        self._expect("do")
        return WhileStat(cond, self._do_block(), line)

    def _for_stat(self):
        line = self._advance()[2]
        name = self._name()
        self._expect("=")
        start = self._expression()
        self._expect(",")
        stop = self._expression()
        step = self._expression() if self._accept(",") else None
        self._expect("do")
        return ForNum(name, start, stop, step, self._do_block(), line)

    def _do_block(self) -> Block:
        body = self._block(_BLOCK_ENDS)
        self._expect("end")
        return body

    def _function_stat(self):
        line = self._advance()[2]
        _, first, first_line = self.tok
        self.used.add(self._name())
        target = VarExpr(first, first_line)
        dotted: list[str] = []
        while self._accept("."):
            dotted.append(self._name())
        method_name = self._name() if self._accept(":") else None
        params, body, captured = self._funcbody()
        if method_name is not None:
            params = ["self"] + params
            dotted.append(method_name)
        fn = FunctionExpr(params, body, line, captured)
        if not dotted:
            return AssignName(first, fn, line)
        obj = target
        for name in dotted[:-1]:
            obj = IndexExpr(obj, StringLit(name, line), line)
        return AssignIndex(obj, StringLit(dotted[-1], line), fn, line)

    def _return_stat(self):
        line = self._advance()[2]
        if self.tok[1] in _RETURN_ENDS:
            return ReturnStat([], line)
        return ReturnStat(self._expression_list(), line)

    def _funcbody(self):
        self._open_body()
        self._expect("(")
        params = []
        if self.tok[1] != ")":
            params.append(self._name())
            while self._accept(","):
                params.append(self._name())
        self._expect(")")
        return params, self._do_block(), self._close_body()

    # ---------------------------------------------------------- expressions

    def _expression(self, limit: int = 0):
        """Parse operators binding tighter than limit, then stop."""
        if self.tok[1] == "-":
            line = self._advance()[2]
            left = UnaryOp("-", self._expression(_UNARY), line)
        else:
            left = self._postfix()
        while True:
            _, op, line = self.tok
            strength = _BINARY.get(op, 0)
            if strength <= limit:
                return left
            self._advance()
            right = self._expression(
                strength - 1 if op == ".." else strength)
            left = BinOp(op, left, right, line)

    def _expression_list(self) -> list:
        exprs = [self._expression()]
        while self._accept(","):
            exprs.append(self._expression())
        return exprs

    def _postfix(self):
        expr = self._primary()
        while True:
            _, mark, line = self.tok
            if mark == ".":
                self._advance()
                name_line = self.tok[2]
                expr = IndexExpr(expr, StringLit(self._name(), name_line),
                                 line)
            elif mark == "[":
                self._advance()
                key = self._expression()
                self._expect("]")
                expr = IndexExpr(expr, key, line)
            elif mark == ":":
                self._advance()
                name = self._name()
                bare = isinstance(expr, VarExpr)
                if not bare:
                    self._open_body()
                args = self._call_args()
                captured = set() if bare else self._close_body()
                expr = desugar_colon_call(
                    ColonCall(expr, name, args, line), captured)
            elif mark == "(":
                expr = CallExpr(expr, self._call_args(), line)
            else:
                return expr

    def _call_args(self) -> list:
        self._expect("(")
        args = self._expression_list() if self.tok[1] != ")" else []
        self._expect(")")
        return args

    def _primary(self):
        kind, word, line = self.tok
        if kind == NUMBER:
            self._advance()
            return NumberLit(float(word), line)
        if kind == STRING:
            self._advance()
            return StringLit(_decode_string(word, line), line)
        if kind == IDENT:
            self._advance()
            self.used.add(word)
            return VarExpr(word, line)
        if word == "nil":
            self._advance()
            return NilLit(line)
        if word == "true" or word == "false":
            self._advance()
            return BoolLit(word == "true", line)
        if word == "function":
            self._advance()
            params, body, captured = self._funcbody()
            return FunctionExpr(params, body, line, captured)
        if word == "(":
            self._advance()
            expr = self._expression()
            self._expect(")")
            return expr
        if word == "{":
            return self._table_ctor()
        self._error("an expression")

    def _table_ctor(self):
        line = self._advance()[2]  # consumes '{'
        fields = []
        while self.tok[1] != "}":
            name = self._name()
            self._expect("=")
            fields.append((name, self._expression()))
            if not self._accept(","):
                break
        self._expect("}")
        return TableCtor(fields, line)


_STATEMENTS = {
    "local": _Parser._local_stat,
    "if": _Parser._if_stat,
    "while": _Parser._while_stat,
    "for": _Parser._for_stat,
    "function": _Parser._function_stat,
    "return": _Parser._return_stat,
}
