"""Tokenizer for the scripting language.

One findall pass over one pattern lexes the source.  Each match skips
blanks and comments, then takes an identifier, a number, a closed
string, a two-character operator or any one non-blank character, a
newline included.  Its kind comes from the table of fixed lexemes
(keywords, operators, marks), else from its first character; a newline
counts a line and makes no token.  Identifiers and numbers are ASCII
only.  Tokens are plain (kind, lexeme, line) tuples.
"""

import re
import string

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

# The text always ends in a newline, which the group's last alternative
# takes, so a match never backtracks into the skipped blanks and comments.
_TOKEN = re.compile(
    r"(?:[ \t\r]+|--[^\n]*)*"
    r"([A-Za-z_][A-Za-z0-9_]*"
    r"|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
    r"|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'"
    r"|==|~=|<=|>=|\.\."
    r"|[^ \t\r])")

_NEWLINE = "newline"
_UNTERMINATED = "unterminated"

# lexeme -> kind, for every lexeme that has one fixed text
_FIXED = {
    **dict.fromkeys(KEYWORDS, KEYWORD),
    **dict.fromkeys("== ~= <= >= .. + - * / < > =".split(), OP),
    **dict.fromkeys("(){}[],;:.", PUNCT),
    "\n": _NEWLINE, '"': _UNTERMINATED, "'": _UNTERMINATED,
}

# first character -> kind, for every other lexeme
_FIRST = {
    **dict.fromkeys(string.ascii_letters + "_", IDENT),
    **dict.fromkeys(string.digits, NUMBER),
    '"': STRING, "'": STRING,
}


def tokenize(source: str) -> list[tuple[str, str, int]]:
    """Lex source into (kind, lexeme, line) tuples, skipping comments
    and whitespace; strings and numbers keep their raw lexeme.

    Raises LexError on illegal characters and unterminated strings.
    """
    tokens = []
    append = tokens.append
    fixed = _FIXED.get
    first = _FIRST.get
    newline, unterminated = _NEWLINE, _UNTERMINATED
    line = 1
    for text in _TOKEN.findall(source + "\n"):
        kind = fixed(text) or first(text[0])
        if kind is newline:
            line += 1
        elif kind is None:
            raise LexError(f"illegal character {text!r}", line)
        elif kind is unterminated:
            raise LexError("unterminated string", line)
        else:
            append((kind, text, line))
    return tokens
