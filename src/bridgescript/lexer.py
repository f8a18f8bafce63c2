"""Tokenizer for the scripting language.

One master regex with named groups; alternatives are ordered so that
multi-character operators win over their prefixes and comments win over
the minus operator.
"""

import re

from .errors import LexError

IDENT = "ident"
NUMBER = "number"
STRING = "string"
KEYWORD = "keyword"
OP = "op"
PUNCT = "punct"

KEYWORDS = {
    "and", "do", "else", "elseif", "end", "false", "for", "function",
    "if", "local", "nil", "not", "or", "return", "then", "true", "while",
}

TOKEN_SPEC = [
    ("NEWLINE", r"\n"),
    ("SKIP", r"[ \t\r]+"),
    ("COMMENT", r"--[^\n]*"),
    ("NUMBER", r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"),
    ("STRING", r"\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'"),
    ("UNTERMINATED", r"\"(?:\\.|[^\"\\\n])*|'(?:\\.|[^'\\\n])*"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("OP", r"==|~=|<=|>=|\.\.|[+\-*/<>=]"),
    ("PUNCT", r"[(){}\[\],;:.]"),
    ("MISMATCH", r"."),
]

_MASTER = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in TOKEN_SPEC))

# match group -> token kind; groups not listed make no token
_KINDS = {"NUMBER": NUMBER, "STRING": STRING, "IDENT": IDENT, "OP": OP,
          "PUNCT": PUNCT}


class Token:
    __slots__ = ("kind", "lexeme", "line")

    def __init__(self, kind: str, lexeme: str, line: int):
        self.kind = kind
        self.lexeme = lexeme
        self.line = line

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.lexeme!r}, line {self.line})"


def tokenize(source: str) -> list[Token]:
    """Lex source into a token list. Comments and whitespace are skipped.

    Raises LexError on illegal characters and unterminated strings.
    String and number tokens keep their raw lexeme; decoding happens in
    the parser.
    """
    tokens: list[Token] = []
    line = 1
    for m in _MASTER.finditer(source):
        group = m.lastgroup
        kind = _KINDS.get(group)
        if kind is not None:
            text = m.group()
            if kind is IDENT and text in KEYWORDS:
                kind = KEYWORD
            tokens.append(Token(kind, text, line))
        elif group == "NEWLINE":
            line += 1
        elif group == "UNTERMINATED":
            raise LexError("unterminated string", line)
        elif group == "MISMATCH":
            raise LexError(f"illegal character {m.group()!r}", line)
    return tokens
