"""Recursive descent parser with precedence climbing for expressions.

The grammar is a small table-and-closure language: assignments, calls,
local declarations, table constructors with named fields, function and
method definitions, if/while/numeric-for, return, and expressions over
the arithmetic, comparison and concatenation operators.  As in Lua, a
call is the only expression that may stand as a statement.  As in Lua, a
return statement ends its block: one ';' may follow it, then the
block's end.

Tokens are the lexer's (kind, lexeme, line) tuples, read by position
or unpacking.  The parser reads through one cursor, self.tok, over a
copy of the token list that ends in the sentinel (<eof>, <eof>, line),
whose lexeme the lexer never produces; the caller's list is left as it
is.  The hot paths move the cursor inline, self.tok = self._next(),
rather than through a method.  Keywords, operators and marks are
matched by their text alone: no identifier, number or string lexeme can
equal one.

An operand's first token picks how it is read, in _expression itself,
as Pratt's top-down operator precedence parser does (Pratt, POPL 1973):
a name, number or string becomes its node there, and only a postfix
mark after it (. [ : or a call's '(') costs a call, to _postfix, which
also reads call arguments; an operand that starts with a keyword or '('
or '{' goes to _primary.  All binary operators are then parsed by one
loop over the binding strengths in _BINARY, as Lua's subexpr does:
comparison 1, .. 2 (right associative), + - 3, * / 4; unary minus binds
tighter than all of them.

A colon call recv:name(args) is one CallExpr whose name is set: the
call evaluates recv once, looks name up in it and passes it first.  A
method definition is sugar and does not survive parsing:
    function t:m(p) ... end becomes t["m"] = function(self, p) ... end

While it builds a function body the parser collects the variable names
used anywhere inside it.  Each FunctionExpr and the Chunk record the
names used by the functions nested in their body (captured), which is
all the compiler needs to know which locals to keep in cells.
"""

from .errors import LexError, ParseError
from .lexer import IDENT, NUMBER, STRING, tokenize
from .nodes import (
    AssignIndex,
    AssignName,
    BinOp,
    Block,
    BoolLit,
    CallExpr,
    Chunk,
    ExprStat,
    ForNum,
    FunctionExpr,
    IfStat,
    IndexExpr,
    LocalDecl,
    NilLit,
    NumberLit,
    ParenCall,
    ReturnStat,
    StringLit,
    TableCtor,
    UnaryOp,
    VarExpr,
    WhileStat,
)

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

# the marks that may follow an operand: index, method call, call
_POSTFIX = frozenset(".[:(")

_BLOCK_ENDS = frozenset(("end",))
_IF_ENDS = frozenset(("elseif", "else", "end"))
_RETURN_ENDS = frozenset(("end", "else", "elseif", ";", _EOF))

_SIMPLE_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}


def parse(tokens: list) -> Chunk:
    """Parse a token stream into a Chunk."""
    p = _Parser(tokens)
    try:
        return p.parse_chunk()
    except RecursionError:
        # nesting deep enough to exhaust Python's stack
        pass
    p._error("less deeply nested code")


def parse_source(source: str) -> Chunk:
    return parse(tokenize(source))


def _number(word: str, line: int) -> float:
    """The value of the number lexeme word, or LexError if letters, digits
    or '_' run on after the number, as in 3x (see lexer)."""
    if "_" not in word:  # float() reads 1_0 as 10.0
        try:
            return float(word)
        except ValueError:
            pass
    raise LexError(f"malformed number near {word!r}", line)


def _decode_string(body: str) -> str:
    """The text of a string body that holds a backslash."""
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

    # ------------------------------------------------------------ plumbing

    def _advance(self) -> tuple:
        tok = self.tok
        self.tok = self._next()
        return tok

    def _accept(self, text: str) -> bool:
        if self.tok[1] != text:
            return False
        self.tok = self._next()
        return True

    def _expect(self, text: str) -> None:
        if self.tok[1] != text:
            self._error(f"'{text}'")
        self.tok = self._next()

    def _name(self) -> str:
        kind, name, _ = self.tok
        if kind != IDENT:
            self._error(IDENT)
        self.tok = self._next()
        return name

    def _error(self, expected: str):
        tok = self.tok
        if tok[0] == NUMBER:  # a malformed number is the lexer's error
            _number(tok[1], tok[2])
        found = "end of input" if tok is self.end else f"'{tok[1]}'"
        raise ParseError(tok[2], expected, found)

    # ----------------------------------------------------------- statements

    def parse_chunk(self) -> Chunk:
        return Chunk(self._block(frozenset((_EOF,))), self.nested)

    def _block(self, terminators: frozenset) -> Block:
        stmts = []
        while self.tok[1] not in terminators and self.tok is not self.end:
            if not self._accept(";"):
                stmt = self._statement()
                stmts.append(stmt)
                if stmt.__class__ is ReturnStat:
                    # as in Lua, return (and one ';') ends its block
                    self._accept(";")
                    break
        if self.tok[1] not in terminators:
            self._error("'" + "' or '".join(sorted(terminators)) + "'")
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
        if expr.__class__ is not CallExpr:
            self._error("'='")
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
        exprs = [self._expression()]
        while self._accept(","):
            exprs.append(self._expression())
        return ReturnStat(exprs, line)

    def _funcbody(self):
        """Parameters, body and the names the body's own nested bodies
        use; every name the body uses counts as nested in the enclosing
        body."""
        used, nested = self.used, self.nested
        self.used, self.nested = set(), set()
        self._expect("(")
        params = []
        if self.tok[1] != ")":
            params.append(self._name())
            while self._accept(","):
                params.append(self._name())
        self._expect(")")
        body = self._do_block()
        inner, captured = self.used, self.nested
        used |= inner
        nested |= inner
        self.used, self.nested = used, nested
        return params, body, captured

    # ---------------------------------------------------------- expressions

    def _expression(self, limit: int = 0):
        """Parse operators binding tighter than limit, then stop.  The
        operand's first token picks how it is read; a name, number or
        string that no postfix mark follows is built here, with no call."""
        kind, word, line = self.tok
        if kind == IDENT:
            self.used.add(word)
            left = VarExpr(word, line)
            self.tok = self._next()
        elif kind == NUMBER:
            left = NumberLit(_number(word, line), line)
            self.tok = self._next()
        elif kind == STRING:
            word = word[1:-1]
            if "\\" in word:
                word = _decode_string(word)
            left = StringLit(word, line)
            self.tok = self._next()
        elif word == "-":
            self.tok = self._next()
            left = UnaryOp("-", self._expression(_UNARY), line)
        else:
            left = self._primary()
        op = self.tok[1]
        if op in _POSTFIX:
            left = self._postfix(left)
            op = self.tok[1]
        strength = _BINARY.get(op, 0)
        while strength > limit:
            line = self.tok[2]
            self.tok = self._next()
            right = self._expression(strength - 1 if op == ".." else strength)
            left = BinOp(op, left, right, line)
            op = self.tok[1]
            strength = _BINARY.get(op, 0)
        return left

    def _postfix(self, expr):
        """The index and call marks that follow an operand; a call's
        arguments are read here too."""
        while True:
            _, mark, line = self.tok
            name = None
            if mark == ":" or mark == ".":
                kind, name, name_line = self.tok = self._next()
                if kind != IDENT:
                    self._error(IDENT)
                self.tok = self._next()
                if mark == ".":
                    expr = IndexExpr(expr, StringLit(name, name_line), line)
                    continue
                if self.tok[1] != "(":
                    self._error("'('")
            elif mark == "[":
                self.tok = self._next()
                key = self._expression()
                self._expect("]")
                expr = IndexExpr(expr, key, line)
                continue
            elif mark != "(":
                return expr
            self.tok = self._next()
            args = []
            if self.tok[1] != ")":
                args.append(self._expression())
                while self.tok[1] == ",":
                    self.tok = self._next()
                    args.append(self._expression())
                if self.tok[1] != ")":
                    self._error("')'")
            self.tok = self._next()
            expr = CallExpr(expr, args, line, name)

    def _primary(self):
        """An operand that starts with a keyword or a mark."""
        _, word, line = self.tok
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
            if expr.__class__ is CallExpr:  # (f()) gives one value
                expr = ParenCall(expr.callee, expr.args, expr.line, expr.name)
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
