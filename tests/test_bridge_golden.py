"""Bridge golden corpus: what scripts see of host proxies, on both tiers,
compared with tests/bridge_golden.json.

Each case is a function body run over a fresh registry and interpreter
(see world): once on closures, then until its (K+1)-th call, which runs
generated source.  An entry records, for the first and for the last
call, the values returned or the error's class, message and line, and
after each of the two the outbound bridge's fallback fires per (owner,
member) and its dispatch count.  The cases cover member lookup, fields,
statics, arrays, lone and general dispatch, overloaded methods and
constructors, and the errors of each.
After a deliberate change of what scripts see of the bridge, record the
file again:

    PYTHONPATH=src python tests/test_bridge_golden.py --record
"""

import json
import pathlib
import sys

import pytest

from bridgescript import Interpreter
from bridgescript.demo import demo_bodies, load_demo_manifest
from bridgescript.errors import BridgeScriptError
from bridgescript.manifest import register_from_manifest
from bridgescript.nodes import K
from bridgescript.objects import NIL, Closure, NativeFunction, Table
from bridgescript.registry import (
    FLOAT,
    INTEGER,
    TEXT,
    VOID,
    ArrayTag,
    ClassTag,
    FieldSpec,
    HostArray,
    HostClassDescriptor,
    HostObject,
    HostRegistry,
    MethodDescriptor,
)

GOLDEN = pathlib.Path(__file__).parent / "bridge_golden.json"

# a host integer no script number holds
HUGE = 10 ** 400


def _method(name, params, returns, body, static=False):
    return MethodDescriptor(name, params, returns, static, body)


def _init(self):
    self.fields["big"] = HUGE


def _move(self, dx, dy):
    self.fields["x"] += dx
    self.fields["y"] += dy


def _fail(self, *args):
    raise ValueError("boom")


def _kind(self, v):
    """What a class slot got: nil, an object's class or a wrapper."""
    if v is None:
        return "nil"
    if v.__class__ is HostObject:
        return v.class_name
    return f"wrapper of {v.target_type}"


def _hold(self, v):
    self.fields["held"] = v


SHAPE = HostClassDescriptor(
    name="Shape",
    fields={"x": FieldSpec(FLOAT), "y": FieldSpec(FLOAT),
            "n": FieldSpec(INTEGER), "name": FieldSpec(TEXT),
            "big": FieldSpec(INTEGER),
            "unit": FieldSpec(FLOAT, static=True, initial=1.0),
            "bigs": FieldSpec(ArrayTag(INTEGER), static=True)},
    constructors=[_method("<init>", (), VOID, _init)],
    methods={
        "move": [_method("move", (FLOAT, FLOAT), VOID, _move)],
        "scale": [_method("scale", (FLOAT,), FLOAT,
                          lambda self, k: self.fields["x"] * k)],
        "label": [_method("label", (), TEXT, lambda self: "shape")],
        "count": [_method("count", (), INTEGER, lambda self: 7)],
        "huge": [_method("huge", (), INTEGER, lambda self: HUGE)],
        "bad": [_method("bad", (), FLOAT, lambda self: "not a number")],
        "fail": [_method("fail", (), VOID, _fail)],
        "take": [_method("take", (ClassTag("Shape"),), TEXT, _kind)],
        "clash": [_method("clash", (ClassTag("Shape"),), VOID, _fail)],
        "place": [_method("place", (FLOAT, FLOAT, FLOAT), FLOAT,
                          lambda self, a, b, c: a + b + c)],
        "pick": [_method("pick", (INTEGER,), TEXT, lambda self, i: "int"),
                 _method("pick", (TEXT,), TEXT, lambda self, s: "text")],
        "twice": [_method("twice", (FLOAT,), FLOAT, lambda v: v * 2.0,
                          static=True)],
        "ints": [_method("ints", (INTEGER,), ArrayTag(INTEGER),
                         lambda n: HostArray(INTEGER, [0] * n), static=True)],
    })
CIRCLE = HostClassDescriptor(
    name="Circle", base="Shape", fields={"r": FieldSpec(FLOAT)},
    constructors=[_method("<init>", (), VOID, _init)],
    methods={"area": [_method("area", (), FLOAT,
                              lambda self: 3.0 * self.fields["r"] ** 2)]})
OTHER = HostClassDescriptor(
    name="Other", constructors=[_method("<init>", (), VOID, None)],
    methods={"move": [_method("move", (FLOAT, FLOAT), VOID, _move)]})
HOLDER = HostClassDescriptor(
    name="Holder", fields={"held": FieldSpec(ClassTag("Shape"))},
    constructors=[_method("<init>", (ClassTag("Shape"),), VOID, _hold)])


def world(validate: bool = False) -> Interpreter:
    """An interpreter whose globals s, c and o are a Shape, a Circle and
    an Other, S and C the class proxies of Shape and Circle, a an array
    of three integers and b Shape.bigs, the array [1, HUGE].  A Holder
    is made from one Shape, which it keeps in its field held.  The demo
    classes are registered too, and m is the class proxy of
    demo.MathUtil."""
    reg = HostRegistry(validate_invokes=validate)
    register_from_manifest(reg, load_demo_manifest(), demo_bodies(reg))
    for d in (SHAPE, CIRCLE, OTHER, HOLDER):
        reg.register_class(d)
    reg.freeze()
    reg.resolve_field("Shape", "bigs")[1]["bigs"] = HostArray(
        INTEGER, [1, HUGE])
    it = Interpreter(reg)
    it.run('s = hostNewInstance("Shape") c = hostNewInstance("Circle")\n'
           'o = hostNewInstance("Other")\n'
           'S = hostBindClass("Shape") C = hostBindClass("Circle")\n'
           "a = S.ints(3) b = S.bigs m = hostBindClass('demo.MathUtil')")
    return it


# name -> function body; lines count from 2 (line 1 is the function's)
CASES = {
    "fields read": "return s.x, s.n, s.name, c.r",
    "fields written then read": "s.x = 2.5 s.n = 3 s.name = 'q'\n"
                                "return s.x, s.n, s.name",
    "integer field refuses a fraction": "s.n = 1.5",
    "float field refuses a string": "\ns.x = 'a'",
    "text field refuses nil": "s.name = nil",
    "unknown member read": "return s.nope",
    "unknown member write": "s.nope = 1",
    "number key on an object": "return s[1]",
    "static field through an instance": "return s.unit",
    "static method through an instance": "return s.twice(2)",
    "static field written through an instance": "s.unit = 2",
    "instance field through the class": "return S.x",
    "instance method through the class": "return S.move",
    "instance field written through the class": "S.x = 1",
    "method assigned": "s.move = 1",
    "static method assigned": "S.twice = 1",
    "__hostref written on an object": "s.__hostref = 1",
    "__hostref written on a class": "S.__hostref = 1",
    "__hostref written on an array": "a.__hostref = 1",
    "elements and length": "a[1] = 5 a[3] = a[1] + 2\n"
                           "return a[1], a[2], a[3], a.length",
    "element read past the end": "return a[4]",
    "element read at 0": "return a[0]",
    "element written past the end": "a[4] = 1",
    "element's value refused before its index": "a[9] = 'x'",
    "fraction stored into an integer element": "a[1] = 2.5",
    "non-integer index read": "return a[1.5]",
    "non-integer index written": "a[1.5] = 1",
    "unknown array member": "return a.size",
    "length written": "a.length = 2",
    "lone methods": "s:move(1, 2)\n"
                    "return s.x, s.y, s:scale(2), s:label(), s:count()",
    "lone method with too few arguments": "s:move(1)",
    "lone method with too many arguments": "s:move(1, 2, 3)",
    "lone method with a string argument": "s:move('a', 2)",
    "lone nullary method with an argument": "return s:label(1)",
    "lone method called with '.'": "s.move(1, 2)",
    "lone method on another class": "s.move(o, 1, 2)",
    "lone method on a plain table": "s.move({}, 1, 2)",
    "lone method on the class proxy": "s.move(S, 1, 2)",
    "lone method on a subclass receiver": "s.move(c, 1, 2)\n"
                                          "return c.x, c.y",
    "inherited members of a subclass": "c:move(3, 4) c.r = 2\n"
                                       "return c.x, c.y, c:scale(2), "
                                       "c:area(), c.name, C.unit",
    "method reads are stable": "return s.move == s.move, s.move == c.move, "
                               "S.twice == S.twice",
    "general dispatch": "return s:pick(1), s:pick('a')",
    "general dispatch without a match": "return s:pick(true)",
    "lone static method": "return S.twice(2), S.twice(0.5), C.twice(1)",
    "lone static method without arguments": "return S.twice()",
    "static method called with ':'": "return S:twice(2)",
    "static field written and read": "S.unit = 3 return S.unit, C.unit",
    "static field refuses a string": "S.unit = 'u'",
    "host integer too large in a field": "return s.big",
    "host integer too large in an element": "return b[1], b[2]",
    "host integer too large as a result": "return s:huge()",
    "body result of the wrong tag": "return s:bad()",
    "host exception in a body": "\ns:fail()",
    "lone class-slot method": "return s:take(s), s:take(c), s:take(nil), "
                              "c:take(c)",
    "lone class-slot method with another class": "return s:take(o)",
    "lone class-slot method with a plain table": "local t = {}\n"
                                                 "return s:take(t), t.__base",
    "lone class-slot method with the class proxy": "return s:take(S)",
    "lone class-slot method with an array": "return s:take(a)",
    "lone class-slot method with a number": "return s:take(1)",
    "lone class-slot method without arguments": "return s:take()",
    "lone class-slot method on another class": "return s.take(o, s)",
    "lone method of three floats": "return s:place(1, 2, 3.5)",
    "lone method of three floats with too few arguments":
        "return s:place(1, 2)",
    "lone method of three floats with a string": "return s:place(1, 'a', 3)",
    "lone class-slot constructor": "return hostNewInstance('Holder', s).held, "
                                   "hostNewInstance('Holder', c).held, "
                                   "hostNewInstance('Holder', nil).held",
    "lone class-slot constructor with another class":
        "return hostNewInstance('Holder', o)",
    "lone class-slot constructor with a plain table":
        "local t = {}\nlocal h = hostNewInstance('Holder', t)\n"
        "return h.held == t, t.__base",
    "lone class-slot constructor with the class proxy":
        "return hostNewInstance('Holder', S)",
    "lone class-slot constructor with an array":
        "return hostNewInstance('Holder', a)",
    "lone class-slot constructor with a number":
        "return hostNewInstance('Holder', 1)",
    "lone class-slot constructor without arguments":
        "return hostNewInstance('Holder')",
    "host exception in a class-slot lone method": "\ns:clash(s)",
    "overloaded static method with a number":
        "return m.describe(2), m.describe(2.5)",
    "overloaded static method with a string": "return m.describe('s')",
    "overloaded static method with true": "return m.describe(true)",
    "overloaded static method with nil": "return m.describe(nil)",
    "overloaded static method without arguments": "return m.describe()",
    "overloaded static method with two arguments":
        "return m.describe(1, 'a')",
    "overloaded constructor without arguments":
        "local p = hostNewInstance('demo.Point')\nreturn p.x, p.y",
    "overloaded constructor with one argument":
        "return hostNewInstance('demo.Point', 1)",
    "overloaded constructor with two arguments":
        "local p = hostNewInstance('demo.Point', 1, 2.5)\nreturn p.x, p.y",
    "overloaded constructor with three arguments":
        "return hostNewInstance('demo.Point', 1, 2, 3)",
    "overloaded constructor with a string":
        "return hostNewInstance('demo.Point', 'a', 2)",
}

# cases also run with validate_invokes on
VALIDATED = ("lone methods", "inherited members of a subclass",
             "lone static method", "body result of the wrong tag",
             "host exception in a body", "general dispatch",
             "lone class-slot method", "lone method of three floats",
             "lone class-slot constructor",
             "host exception in a class-slot lone method",
             "overloaded static method with a number",
             "overloaded constructor with two arguments")


def show(v):
    """A comparable form of a script value: a proxy by what it stands
    for."""
    if v.__class__ is Table:
        ref = v.entries.get("__hostref")
        if ref is None:
            return "table"
        if ref.__class__ is HostObject:
            return ["object", ref.class_name]
        if ref.__class__ is HostArray:
            return ["array", repr(ref.elem_tag), len(ref.elements)]
        return ["class", ref.name]
    if v.__class__ in (Closure, NativeFunction):
        return "function"
    if v is NIL:
        return "nil"
    return v


def counts(it: Interpreter) -> list:
    stats = it.outbound.stats
    fires = sorted([owner if owner.__class__ is str else repr(owner), key, n]
                   for (owner, key), n in stats.fallback_fires.items())
    return [fires, stats.dispatches]


def call(it: Interpreter, f) -> list:
    try:
        result = ["ok", [show(v) for v in f.invoke([])]]
    except BridgeScriptError as e:
        result = [type(e).__name__, e.message, e.line]
    return [result, *counts(it)]


def outcome(body: str, validate: bool = False) -> dict:
    it = world(validate)
    it.run("function probe()\n" + body + "\nend")
    f = it.global_value("probe")
    first = call(it, f)
    for _ in range(K - 1):
        call(it, f)
    last = call(it, f)
    generated = f.proto.body.__code__.co_filename.startswith("<")
    return {"closures": first, "generated": last, "tier_up": generated}


def inputs() -> dict:
    """entry name -> (body, validate)"""
    entries = {name: (body, False) for name, body in CASES.items()}
    for name in VALIDATED:
        entries[name + " [validate_invokes]"] = (CASES[name], True)
    return entries


def record() -> None:
    doc = {name: outcome(*case) for name, case in inputs().items()}
    GOLDEN.write_text(json.dumps(doc, indent=1, ensure_ascii=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(doc)} entries in {GOLDEN}")


_GOLDEN = json.loads(GOLDEN.read_text(encoding="utf-8")) \
    if GOLDEN.exists() else {}
_INPUTS = inputs()


def test_corpus_covers_every_case():
    assert set(_GOLDEN) == set(_INPUTS)
    assert all(entry["tier_up"] for entry in _GOLDEN.values())


@pytest.mark.parametrize("name", sorted(_INPUTS))
def test_bridge_matches_golden(name):
    assert outcome(*_INPUTS[name]) == _GOLDEN[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
