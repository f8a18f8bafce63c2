"""Recursive descent parser.

The grammar is a small table-and-closure language: assignments, local
declarations, table constructors with named fields, function and method
definitions, if/while/numeric-for, return, and expressions over the
arithmetic, comparison and concatenation operators (comparison binds
loosest, then .., then + -, then * /, then unary minus).

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
from .lexer import IDENT, KEYWORD, NUMBER, OP, PUNCT, STRING, Token, tokenize
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

_COMPARISON_OPS = {"==", "~=", "<", ">", "<=", ">="}

_SIMPLE_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}


def parse(tokens: list[Token]) -> Chunk:
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
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.used: set = set()  # names used in the innermost open body
        self.nested: set = set()  # names used by functions nested in it
        self.outer: list = []  # (used, nested) of the enclosing bodies

    # ------------------------------------------------------------ plumbing

    def _peek(self) -> Token | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _check(self, kind: str, lexeme: str | None = None) -> bool:
        tok = self._peek()
        if tok is None or tok.kind != kind:
            return False
        return lexeme is None or tok.lexeme == lexeme

    def _accept(self, kind: str, lexeme: str | None = None) -> Token | None:
        if self._check(kind, lexeme):
            return self._advance()
        return None

    def _expect(self, kind: str, lexeme: str | None = None) -> Token:
        tok = self._accept(kind, lexeme)
        if tok is None:
            self._error(f"'{lexeme}'" if lexeme else kind)
        return tok

    def _error(self, expected: str):
        tok = self._peek()
        if tok is None:
            line = self.tokens[-1].line if self.tokens else 1
            raise ParseError(line, expected, "end of input")
        raise ParseError(tok.line, expected, f"'{tok.lexeme}'")

    def _line(self) -> int:
        tok = self._peek()
        if tok is not None:
            return tok.line
        return self.tokens[-1].line if self.tokens else 1

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
        block = self._block(frozenset())
        if self._peek() is not None:
            self._error("a statement")
        return Chunk(block, self.nested)

    def _block(self, terminators: frozenset) -> Block:
        stmts = []
        while True:
            tok = self._peek()
            if tok is None:
                if terminators:
                    self._error("'" + "' or '".join(sorted(terminators)) + "'")
                break
            if tok.kind == KEYWORD and tok.lexeme in terminators:
                break
            if tok.kind == PUNCT and tok.lexeme == ";":
                self._advance()
                continue
            stmts.append(self._statement())
        return Block(stmts)

    def _statement(self):
        tok = self._peek()
        if tok.kind == KEYWORD:
            word = tok.lexeme
            if word == "local":
                return self._local_stat()
            if word == "if":
                return self._if_stat()
            if word == "while":
                return self._while_stat()
            if word == "for":
                return self._for_stat()
            if word == "function":
                return self._function_stat()
            if word == "return":
                return self._return_stat()
        expr = self._expression()
        if self._accept(OP, "="):
            line = tok.line
            value = self._expression()
            if isinstance(expr, VarExpr):
                return AssignName(expr.name, value, line)
            if isinstance(expr, IndexExpr):
                return AssignIndex(expr.obj, expr.key, value, line)
            raise ParseError(line, "an assignable target", "an expression")
        return ExprStat(expr, tok.line)

    def _local_stat(self):
        line = self._advance().line
        name = self._expect(IDENT).lexeme
        expr = self._expression() if self._accept(OP, "=") else None
        return LocalDecl(name, expr, line)

    def _if_stat(self):
        line = self._advance().line
        clauses = []
        cond = self._expression()
        self._expect(KEYWORD, "then")
        clauses.append((cond, self._block(frozenset(("elseif", "else", "end")))))
        else_block = None
        while True:
            if self._accept(KEYWORD, "elseif"):
                cond = self._expression()
                self._expect(KEYWORD, "then")
                clauses.append(
                    (cond, self._block(frozenset(("elseif", "else", "end")))))
                continue
            if self._accept(KEYWORD, "else"):
                else_block = self._block(frozenset(("end",)))
            self._expect(KEYWORD, "end")
            return IfStat(clauses, else_block, line)

    def _while_stat(self):
        line = self._advance().line
        cond = self._expression()
        self._expect(KEYWORD, "do")
        body = self._block(frozenset(("end",)))
        self._expect(KEYWORD, "end")
        return WhileStat(cond, body, line)

    def _for_stat(self):
        line = self._advance().line
        name = self._expect(IDENT).lexeme
        self._expect(OP, "=")
        start = self._expression()
        self._expect(PUNCT, ",")
        stop = self._expression()
        step = self._expression() if self._accept(PUNCT, ",") else None
        self._expect(KEYWORD, "do")
        body = self._block(frozenset(("end",)))
        self._expect(KEYWORD, "end")
        return ForNum(name, start, stop, step, body, line)

    def _function_stat(self):
        line = self._advance().line
        first = self._expect(IDENT)
        self.used.add(first.lexeme)
        target = VarExpr(first.lexeme, first.line)
        dotted: list[str] = []
        method_name = None
        while True:
            if self._accept(PUNCT, "."):
                dotted.append(self._expect(IDENT).lexeme)
                continue
            if self._accept(PUNCT, ":"):
                method_name = self._expect(IDENT).lexeme
            break
        params, body, captured = self._funcbody()
        if method_name is not None:
            params = ["self"] + params
        fn = FunctionExpr(params, body, line, captured)
        if method_name is not None:
            obj = target
            for name in dotted:
                obj = IndexExpr(obj, StringLit(name, line), line)
            return AssignIndex(obj, StringLit(method_name, line), fn, line)
        if dotted:
            obj = target
            for name in dotted[:-1]:
                obj = IndexExpr(obj, StringLit(name, line), line)
            return AssignIndex(obj, StringLit(dotted[-1], line), fn, line)
        return AssignName(first.lexeme, fn, line)

    def _return_stat(self):
        line = self._advance().line
        tok = self._peek()
        if (tok is None
                or (tok.kind == KEYWORD and tok.lexeme in ("end", "else", "elseif"))
                or (tok.kind == PUNCT and tok.lexeme == ";")):
            return ReturnStat([], line)
        exprs = [self._expression()]
        while self._accept(PUNCT, ","):
            exprs.append(self._expression())
        return ReturnStat(exprs, line)

    def _funcbody(self):
        self._open_body()
        self._expect(PUNCT, "(")
        params = []
        if not self._check(PUNCT, ")"):
            params.append(self._expect(IDENT).lexeme)
            while self._accept(PUNCT, ","):
                params.append(self._expect(IDENT).lexeme)
        self._expect(PUNCT, ")")
        body = self._block(frozenset(("end",)))
        self._expect(KEYWORD, "end")
        return params, body, self._close_body()

    # ---------------------------------------------------------- expressions

    def _expression(self):
        return self._comparison()

    def _comparison(self):
        left = self._concat()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != OP or tok.lexeme not in _COMPARISON_OPS:
                return left
            op = self._advance()
            right = self._concat()
            left = BinOp(op.lexeme, left, right, op.line)

    def _concat(self):
        left = self._additive()
        tok = self._peek()
        if tok is not None and tok.kind == OP and tok.lexeme == "..":
            op = self._advance()
            right = self._concat()  # right associative
            return BinOp("..", left, right, op.line)
        return left

    def _additive(self):
        left = self._multiplicative()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != OP or tok.lexeme not in ("+", "-"):
                return left
            op = self._advance()
            right = self._multiplicative()
            left = BinOp(op.lexeme, left, right, op.line)

    def _multiplicative(self):
        left = self._unary()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != OP or tok.lexeme not in ("*", "/"):
                return left
            op = self._advance()
            right = self._unary()
            left = BinOp(op.lexeme, left, right, op.line)

    def _unary(self):
        tok = self._peek()
        if tok is not None and tok.kind == OP and tok.lexeme == "-":
            line = self._advance().line
            return UnaryOp("-", self._unary(), line)
        return self._postfix()

    def _postfix(self):
        expr = self._primary()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != PUNCT:
                return expr
            mark = tok.lexeme
            if mark == ".":
                self._advance()
                name = self._expect(IDENT)
                expr = IndexExpr(expr, StringLit(name.lexeme, name.line), tok.line)
            elif mark == "[":
                self._advance()
                key = self._expression()
                self._expect(PUNCT, "]")
                expr = IndexExpr(expr, key, tok.line)
            elif mark == ":":
                self._advance()
                name = self._expect(IDENT).lexeme
                bare = isinstance(expr, VarExpr)
                if not bare:
                    self._open_body()
                args = self._call_args()
                captured = set() if bare else self._close_body()
                expr = desugar_colon_call(
                    ColonCall(expr, name, args, tok.line), captured)
            elif mark == "(":
                expr = CallExpr(expr, self._call_args(), tok.line)
            else:
                return expr

    def _call_args(self) -> list:
        self._expect(PUNCT, "(")
        args = []
        if not self._check(PUNCT, ")"):
            args.append(self._expression())
            while self._accept(PUNCT, ","):
                args.append(self._expression())
        self._expect(PUNCT, ")")
        return args

    def _primary(self):
        tok = self._peek()
        if tok is None:
            self._error("an expression")
        kind = tok.kind
        if kind == NUMBER:
            self._advance()
            return NumberLit(float(tok.lexeme), tok.line)
        if kind == STRING:
            self._advance()
            return StringLit(_decode_string(tok.lexeme, tok.line), tok.line)
        if kind == IDENT:
            self._advance()
            self.used.add(tok.lexeme)
            return VarExpr(tok.lexeme, tok.line)
        if kind == KEYWORD:
            if tok.lexeme == "nil":
                self._advance()
                return NilLit(tok.line)
            if tok.lexeme == "true":
                self._advance()
                return BoolLit(True, tok.line)
            if tok.lexeme == "false":
                self._advance()
                return BoolLit(False, tok.line)
            if tok.lexeme == "function":
                self._advance()
                params, body, captured = self._funcbody()
                return FunctionExpr(params, body, tok.line, captured)
            self._error("an expression")
        if kind == PUNCT:
            if tok.lexeme == "(":
                self._advance()
                expr = self._expression()
                self._expect(PUNCT, ")")
                return expr
            if tok.lexeme == "{":
                return self._table_ctor()
        self._error("an expression")

    def _table_ctor(self):
        line = self._advance().line  # consumes '{'
        fields = []
        while not self._check(PUNCT, "}"):
            name = self._expect(IDENT).lexeme
            self._expect(OP, "=")
            fields.append((name, self._expression()))
            if not self._accept(PUNCT, ","):
                break
        self._expect(PUNCT, "}")
        return TableCtor(fields, line)
