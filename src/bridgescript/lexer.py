"""Tokenizer for the scripting language.

One findall pass over one pattern lexes the source.  Each match skips
blanks, then takes one lexeme: an identifier, a number, a closed
string, an operator, a comment with the newline that ends it, or any
one other non-blank character, a newline included.  Its kind comes
from the table of fixed lexemes (keywords, operators, marks), else from
its first character.  A newline, and so a comment, counts a line and
makes no token; one Python loop turns the rest into tokens, checking
first whether a lexeme's kind is a token's, so the other kinds (a
newline, an illegal character, an unterminated string) cost the common
case nothing.  Identifiers and numbers are ASCII only.  Tokens are
plain (kind, lexeme, line) tuples.
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

# One lexeme per match, after any blanks.  Strings come before numbers,
# marks that start no longer lexeme before both, and a comment takes the
# newline that ends it, so it lexes as that newline.  The text always
# ends in a newline, which the last alternative takes, so no blank or
# comment is ever left unmatched.
_TOKEN = re.compile(
    r"[ \t\r]*"
    r"([A-Za-z_][A-Za-z0-9_]*"
    r"|[(){}\[\],;:+*/\n]"
    r"|\"[^\"\\\n]*(?:\\.[^\"\\\n]*)*\""
    r"|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
    r"|'[^'\\\n]*(?:\\.[^'\\\n]*)*'"
    r"|[=~<>]=?|\.\.?|--[^\n]*\n"
    r"|[^ \t\r])")

# the kinds of the lexemes that make a token
_KINDS = frozenset((IDENT, NUMBER, STRING, KEYWORD, OP, PUNCT))
_NEWLINE = "newline"
_UNTERMINATED = "unterminated"

# lexeme -> kind, for every lexeme that has one fixed text
_FIXED = {
    **dict.fromkeys(KEYWORDS, KEYWORD),
    **dict.fromkeys("== ~= <= >= .. + - * / < > =".split(), OP),
    **dict.fromkeys("(){}[],;:.", PUNCT),
    "\n": _NEWLINE, '"': _UNTERMINATED, "'": _UNTERMINATED,
}

# first character -> kind, for every other lexeme; "-" starts a comment
_FIRST = {
    **dict.fromkeys(string.ascii_letters + "_", IDENT),
    **dict.fromkeys(string.digits, NUMBER),
    '"': STRING, "'": STRING, "-": _NEWLINE,
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
    kinds, newline = _KINDS, _NEWLINE
    line = 1
    for text in _TOKEN.findall(source + "\n"):
        kind = fixed(text) or first(text[0])
        if kind in kinds:
            append((kind, text, line))
        elif kind is newline:
            line += 1
        elif kind is None:
            raise LexError(f"illegal character {text!r}", line)
        else:
            raise LexError("unterminated string", line)
    return tokens
