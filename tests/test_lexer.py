"""Token-level checks: kinds, line tracking, comments, strings."""

import random

import pytest

from bridgescript.errors import LexError
from bridgescript.lexer import (
    IDENT,
    KEYWORD,
    KEYWORDS,
    NUMBER,
    OP,
    PUNCT,
    STRING,
    tokenize,
)


def kinds(src):
    return [(kind, lexeme) for kind, lexeme, _ in tokenize(src)]


def test_point_fragment():
    assert kinds("point = {x=0, y=0}") == [
        (IDENT, "point"), (OP, "="), (PUNCT, "{"),
        (IDENT, "x"), (OP, "="), (NUMBER, "0"), (PUNCT, ","),
        (IDENT, "y"), (OP, "="), (NUMBER, "0"), (PUNCT, "}"),
    ]


def test_keywords_and_idents():
    assert kinds("while x do end")[0][0] == KEYWORD
    assert kinds("whilex")[0] == (IDENT, "whilex")
    assert kinds("_f2")[0] == (IDENT, "_f2")


def test_numbers():
    assert [k for k, _ in kinds("0 42 2.5 1e3 2.5E-2")] == [NUMBER] * 5


def test_strings_keep_raw_lexeme():
    toks = tokenize("'a' \"b\\\"c\"")
    assert [kind for kind, _, _ in toks] == [STRING, STRING]
    assert toks[0][1] == "'a'"
    assert toks[1][1] == '"b\\"c"'


def test_multichar_operators_win():
    assert [l for _, l in kinds("== ~= <= >= .. = < .")] == \
        ["==", "~=", "<=", ">=", "..", "=", "<", "."]


def test_colon_and_call_punctuation():
    assert kinds("p:move(2,3)") == [
        (IDENT, "p"), (PUNCT, ":"), (IDENT, "move"), (PUNCT, "("),
        (NUMBER, "2"), (PUNCT, ","), (NUMBER, "3"), (PUNCT, ")"),
    ]


def test_comments_skipped():
    toks = tokenize("a -- trailing\n-- whole line\nb")
    assert [(lexeme, line) for _, lexeme, line in toks] == [("a", 1), ("b", 3)]


def test_line_numbers():
    toks = tokenize("a\nb\n\nc")
    assert [line for _, _, line in toks] == [1, 2, 4]


def test_unterminated_string():
    with pytest.raises(LexError) as e:
        tokenize("x = 'open\n")
    assert "unterminated" in str(e.value)


def test_illegal_character():
    with pytest.raises(LexError) as e:
        tokenize("a\n@")
    assert "@" in str(e.value) and e.value.line == 2


def test_empty_source():
    assert tokenize("") == []
    assert tokenize("  -- only a comment\n") == []


@pytest.mark.parametrize("src, expected", [
    ("...", [(OP, "..", 1), (PUNCT, ".", 1)]),
    (".5", [(PUNCT, ".", 1), (NUMBER, "5", 1)]),
    ("a--b", [(IDENT, "a", 1)]),
    ("a\nb --", [(IDENT, "a", 1), (IDENT, "b", 2)]),
    # letters, digits and '_' that run on after a number stay in its
    # lexeme, which the parser refuses as malformed
    ("1e", [(NUMBER, "1e", 1)]),
    ("3x", [(NUMBER, "3x", 1)]),
    ("s = \"a -- \\\"b\\\" 'c'\" --x",
     [(IDENT, "s", 1), (OP, "=", 1), (STRING, "\"a -- \\\"b\\\" 'c'\"", 1)]),
    ("a\r\n\tb\r\n\t\tc", [(IDENT, "a", 1), (IDENT, "b", 2), (IDENT, "c", 3)]),
])
def test_edge_cases(src, expected):
    assert tokenize(src) == expected


@pytest.mark.parametrize("src, message, line", [
    # identifiers and numbers are ASCII; float() would take any decimal
    # digit, so a Unicode one must not lex as a number
    ("return ٣ + 1", "illegal character '٣'", 1),
    ("return aé", "illegal character 'é'", 1),
    ("~", "illegal character '~'", 1),
    ("a\n~ = b", "illegal character '~'", 2),
    ("x = \"ab\\\ncd\"", "unterminated string", 1),
    ("x\ny = 'abc", "unterminated string", 2),
    ("x = '", "unterminated string", 1),
])
def test_edge_case_errors(src, message, line):
    with pytest.raises(LexError) as e:
        tokenize(src)
    assert e.value.message == message and e.value.line == line


def _random_lexeme(rng):
    """One (kind, lexeme) of a random kind."""
    alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789"
    pick = rng.randrange(6)
    if pick == 0:
        word = rng.choice(alnum[:53]) + "".join(
            rng.choice(alnum) for _ in range(rng.randrange(6)))
        return (KEYWORD if word in KEYWORDS else IDENT), word
    if pick == 1:
        return KEYWORD, rng.choice(sorted(KEYWORDS))
    if pick == 2:
        def digits():
            return str(rng.randrange(10 ** rng.randrange(1, 5)))
        text = digits()
        if rng.random() < 0.5:
            text += "." + digits()
        if rng.random() < 0.3:
            text += rng.choice("eE") + rng.choice(["", "+", "-"]) + digits()
        return NUMBER, text
    if pick == 3:
        quote = rng.choice("'\"")
        body = "".join(rng.choice(["a", " ", "--", "\\n", "\\\\", "\\'",
                                   '\\"', "'\"".replace(quote, ""),
                                   "é", "٣"])
                       for _ in range(rng.randrange(5)))
        return STRING, quote + body + quote
    if pick == 4:
        return OP, rng.choice("== ~= <= >= .. + - * / < > =".split())
    return PUNCT, rng.choice("(){}[],;:.")


@pytest.mark.parametrize("seed", range(20))
def test_random_sources_lex_to_their_lexemes(seed):
    rng = random.Random(seed)
    parts, expected, line = [], [], 1
    for _ in range(rng.randrange(1, 40)):
        kind, text = _random_lexeme(rng)
        parts.append(text)
        expected.append((kind, text, line))
        # at least one blank, comment or newline, so no two lexemes merge
        for _ in range(rng.randrange(1, 4)):
            gap = rng.choice([" ", "\t", "\r", "\n", "comment"])
            if gap == "comment":
                # the blank keeps a '-' lexeme out of the comment
                parts.append(" -- x '\" -- é٣")
                gap = "\n"
            parts.append(gap)
            line += gap == "\n"
    if rng.random() < 0.5:
        parts.append(" -- no newline at the end")
    assert tokenize("".join(parts)) == expected
