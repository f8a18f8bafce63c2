"""Front-end golden corpus: the lex, parse and compile outcome of a fixed
set of texts, compared with tests/frontend_golden.json.

An entry is what parse_source and Chunk.code make of one text: the
error's class, message and line, or "ok" with a digest of a canonical
dump of the tree, followed by the compile error if there is one.  The
dump names each node's class and every slot with its line, and leaves
out what compiling fills in (where, proto, sources, _code).

The inputs are seeded console-fragment texts and longer programs, both
as written and token-mutated (one token dropped, duplicated or swapped
with the next, or a bad character put before one), the demos, and
hand-written cases.  After a deliberate change of what the front end
makes of a text, record the file again:

    PYTHONPATH=src python tests/test_frontend_corpus.py --record
"""

import hashlib
import json
import pathlib
import random
import re
import sys

import pytest

from bridgescript.errors import BridgeScriptError
from bridgescript.parser import parse_source

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "frontend_golden.json"
DEMOS = HERE.parent / "demos"

# slots that compiling, or running on closures, fills in
_COMPILED = {"where", "proto", "seen", "sources", "_code"}

SIDES = ("CENTER", "EAST", "NORTH", "SOUTH", "WEST")


def _quarter(rng) -> float:
    return rng.randint(-400, 400) / 4.0 or 0.25


def fragment(rng, q: int) -> str:
    """A console press, shaped as perfbench's console_churn fragments."""
    frame = (f'hostNewInstance("demo.Frame", "T{rng.randrange(100000)}")'
             if q & 1 else 'hostNewInstance("demo.Frame")')
    point = (f'hostNewInstance("demo.Point", {_quarter(rng)!r}, '
             f'{_quarter(rng)!r})' if q & 2 else 'hostNewInstance("demo.Point")')
    if q & 4:
        result = f"p.x * {float(rng.randint(1, 9))!r} + p.y + {q}"
    else:
        result = (f'f.title .. ":{q}:" .. tostring(p.x - p.y) .. ":" .. '
                  f'hostBindClass("demo.BorderLayout").{rng.choice(SIDES)}')
    lines = [f"local f = {frame}", f"local p = {point}",
             f"p:move({_quarter(rng)!r}, {_quarter(rng)!r})", "f:pack()"]
    if q & 8:
        lines.append("f:show()")
    lines += [f'local b = hostNewInstance("demo.Button", "B{q}")',
              "b:addActionListener({actionPerformed = function(self, ev) "
              f"r{q % 7} = {result} end}})",
              "b:press()"]
    return "\n".join(lines)


def program(rng, q: int) -> str:
    """A longer text over the rest of the grammar: comments, escapes,
    method definitions, loops, if chains, unary minus, parentheses."""
    a, m = rng.randint(1, 50), rng.randint(2, 9)
    return f"""-- program {q}
local t = {{n = {a}, name = "c\\t{q}\\"", step = -{rng.randint(1, 5)}}}
function t:inc(d)
  self.n = self.n + d * t.step  -- a comment
  return self.n
end
local s = 0; local u
for i = 1, {m}, {rng.choice(["1", "2", "-1", "0.5"])} do
  s = s + t:inc(i) / 2
end
while s > {a} do s = s - {m} end
if s == 0 then r{q} = 'zero' elseif s ~= s then r{q} = nil
else r{q} = s .. ":" .. t.name end
local f = function(a, b) return (a), b.y, {{x = -a}} end
t["k"] = f(1, {{y = 2}})
print(-(s), t.k, (f(2, t)), -{rng.randint(0, 9)} <= s, s >= 1e3)
return s, t"""


# a token of the texts above, for mutation: not the front end's lexer
_MUTABLE = re.compile(r'"(?:\\.|[^"\\\n])*"|\'[^\'\n]*\'|[A-Za-z_]\w*'
                      r'|\d+(?:\.\d+)?(?:e\d+)?|==|~=|<=|>=|\.\.|[^\s\w]')


def mutate(rng, text: str, lex: bool = False) -> str:
    """One token dropped, duplicated or swapped with the next; if lex,
    a character the lexer refuses or an open quote put before one."""
    spans = [m.span() for m in _MUTABLE.finditer(text)]
    i = rng.randrange(len(spans) - 1)
    (s, e), (s2, e2) = spans[i], spans[i + 1]
    if lex:
        return text[:s] + rng.choice("~@$'\"") + text[s:]
    op = rng.randrange(3)
    if op == 0:
        return text[:s] + text[e:]
    if op == 1:
        return text[:e] + " " + text[s:e] + text[e:]
    return text[:s] + text[s2:e2] + text[e:s2] + text[s:e] + text[e2:]


HAND = {
    "lex error after a parse error": "x = = 1\ny = 'abc",
    "illegal character after a parse error": "x = )\ny = 2 ~ 3",
    "unterminated string": 'x = "abc',
    "unterminated string on line 3": 'x = 1\n\ny = "ab\\"',
    "non-ASCII letter": "aé",
    "long + chain": "x = " + "1 + " * 5000 + "1",
    "short + chain": "x = " + "1 + " * 100 + "1",
    "long .. chain": "x = " + "'a' .. " * 300 + "'a'",
    "statement after return": "return 1 print(2)",
    "return then semicolons": "return 1;;",
    "deep parentheses": "x = 1\ny = " + "(" * 2000 + "1" + ")" * 2000,
    "empty": "",
    "only a comment": "-- nothing",
    "missing value": "x =",
    "open call": "f(",
    "method without call": "a.b:c",
    "call of a parenthesised name": "(f)()",
    "number target": "1 = 2",
    "bare local": "local",
    "dotted method name": "function t:m.x() end",
    "call as a statement value": "x = f()\nf()()",
    "unary chains": "x = - - -1 * -y .. -z",
    "comparison chain": "x = 1 < 2 == 3 >= 4 ~= 5 <= 6 > 7",
    "right-assoc concat": "x = a .. b .. c + d * e / f - g",
    "table constructor trailing comma": "t = {a = 1, b = {c = 2,},}",
    "table constructor positional": "t = {1, 2}",
    "index by expression": "t[1 + 2][\"k\"].x = t[f(1)]",
    "keyword as name": "local end = 1",
    "escapes": "s = 'a\\n\\t\\r\\q\\\\' .. \"\\\"\"",
    "if chain": "if a then elseif b then x = 1 else y = 2 end",
    "if without then": "if a x = 1 end",
    "for with step": "for i = 10, 1, -1 do end",
    "for without do": "for i = 1, 2 end",
    "while without end": "while x do\n x = 1\n",
    "nested functions": ("local function_ = function(a)\n"
                         "  return function(b) return a + b end\nend"),
    "function statement sugar": "function a.b.c:d(x, y) return self end",
    "function with bad parameter": "function f(1) end",
    "numbers": "x = 1 + 2.5 + 3e2 + 4.5E-1 + 07",
    "number then name": "x = 3x",
}


def inputs() -> dict:
    """name -> text, every text of the corpus."""
    rng = random.Random(20261020)
    texts = {}
    for q in range(30):
        texts[f"fragment {q}"] = fragment(rng, q)
        texts[f"program {q}"] = program(rng, q)
    base = list(texts.items())
    for n in range(240):
        name, text = base[n % len(base)]
        texts[f"{name} mutant {n}"] = mutate(rng, text, lex=n % 8 == 7)
    for path in sorted(DEMOS.glob("*.bs")):
        texts[f"demo {path.name}"] = path.read_text(encoding="utf-8")
    texts.update(HAND)
    return texts


def dump(tree) -> str:
    """A canonical text of a tree, built without recursion so that a
    deep tree dumps too."""
    out, stack = [], [tree]
    while stack:
        x = stack.pop()
        if x.__class__ is _Raw:
            out.append(x)
        elif x is None or isinstance(x, (str, bool, int, float)):
            out.append(repr(x))
        elif isinstance(x, (set, frozenset)):
            out.append(repr(sorted(x)))
        elif isinstance(x, (list, tuple)):
            items = [_Raw("[")]
            for item in x:
                items += [item, _Raw(",")]
            stack += reversed(items + [_Raw("]")])
        else:
            names = sorted({n for c in type(x).__mro__
                            for n in getattr(c, "__slots__", ())} - _COMPILED)
            items = [_Raw(type(x).__name__ + "(")]
            for n in names:
                items += [_Raw(n + "="), getattr(x, n), _Raw(",")]
            stack += reversed(items + [_Raw(")")])
    return "".join(out)


class _Raw(str):
    """Text of the dump itself, as opposed to a value in the tree."""


def _failure(e: BaseException) -> list:
    if isinstance(e, BridgeScriptError):
        return [type(e).__name__, e.message, e.line]
    return [type(e).__name__, None, None]


def outcome(text: str) -> list:
    try:
        chunk = parse_source(text)
    except BridgeScriptError as e:
        return _failure(e)
    entry = ["ok", hashlib.sha256(dump(chunk).encode()).hexdigest()[:20]]
    try:
        chunk.code()
    except (BridgeScriptError, RecursionError) as e:
        entry += _failure(e)
    return entry


def record() -> None:
    doc = {name: outcome(text) for name, text in inputs().items()}
    GOLDEN.write_text(json.dumps(doc, indent=0, ensure_ascii=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(doc)} entries in {GOLDEN}")


_GOLDEN = json.loads(GOLDEN.read_text(encoding="utf-8")) \
    if GOLDEN.exists() else {}
_INPUTS = inputs()


def test_corpus_covers_errors_and_successes():
    kinds = {entry[0] for entry in _GOLDEN.values()}
    assert {"ok", "LexError", "ParseError"} <= kinds
    assert set(_GOLDEN) == set(_INPUTS)


@pytest.mark.parametrize("name", sorted(_INPUTS))
def test_frontend_matches_golden(name):
    assert outcome(_INPUTS[name]) == _GOLDEN[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
