"""Brute-force referee for overload resolution.

This is a from-scratch restatement of the conversion rule table.  It
deliberately shares no code with the production scorer: values are
inspected with bare type checks, the subclass relation is rediscovered
by walking base links, and selection enumerates every candidate and
checks for a unique maximum.  Tests compare its verdicts against
select_overload over randomized instances; any disagreement means one
side misreads the rules.
"""

import math

from bridgescript.errors import ClassNotFound
from bridgescript.objects import NIL, Table
from bridgescript.registry import (
    BOOLEAN,
    FLOAT,
    INTEGER,
    TEXT,
    ArrayTag,
    ClassTag,
    HostArray,
    HostObject,
    InterfaceTag,
)


def _walks_up_to(registry, name: str, base: str) -> bool:
    """Strict-ancestor check by following base links one at a time."""
    seen = set()
    cur = registry.lookup_class(name).base
    while cur is not None and cur not in seen:
        if cur == base:
            return True
        seen.add(cur)
        cur = registry.lookup_class(cur).base
    return False


def _table_wrappable(registry, name: str, kind: str) -> bool:
    try:
        flat = registry.lookup_class(name)
    except ClassNotFound:
        return False
    if flat.kind != kind:
        return False
    if kind == "interface":
        return True
    return any(len(c.params) == 0 for c in flat.constructors)


def score_value(registry, v, tag):
    """Score of converting one script value to one tag; None rejects.

    2 exact, 1 coercion, mirroring: numbers are exact floats and
    integral-only integers (±inf and nan are not integral); nil coerces
    to any reference tag; an object proxy is exact on its own class and
    a coercion on a strict base; a plain table coerces to any wrappable
    interface or class; arrays match on the exact element tag only.
    """
    if tag is FLOAT:
        return 2 if type(v) is float else None
    if tag is INTEGER:
        if type(v) is float and math.isfinite(v) and v == int(v):
            return 1
        return None
    if tag is TEXT:
        return 2 if type(v) is str else None
    if tag is BOOLEAN:
        return 2 if type(v) is bool else None
    if type(tag) is ClassTag:
        if v is NIL:
            return 1
        if type(v) is not Table:
            return None
        ref = v.entries.get("__hostref")
        if ref is None:
            return 1 if _table_wrappable(registry, tag.name, "class") else None
        if type(ref) is not HostObject:
            return None
        if ref.class_name == tag.name:
            return 2
        return 1 if _walks_up_to(registry, ref.class_name, tag.name) else None
    if type(tag) is InterfaceTag:
        if v is NIL:
            return 1
        if type(v) is Table and "__hostref" not in v.entries:
            return 1 if _table_wrappable(registry, tag.name, "interface") \
                else None
        return None
    if type(tag) is ArrayTag:
        if v is NIL:
            return 1
        if type(v) is Table:
            ref = v.entries.get("__hostref")
            if type(ref) is HostArray and ref.elem_tag == tag.elem:
                return 2
        return None
    return None


def score_candidate(registry, method, args):
    if len(method.params) != len(args):
        return None
    total = 0
    for v, tag in zip(args, method.params):
        s = score_value(registry, v, tag)
        if s is None:
            return None
        total += s
    return total


def decide(registry, cands, args):
    """("selected", method) | ("no_match", None) | ("ambiguous", None)."""
    scored = [(score_candidate(registry, m, args), m) for m in cands]
    viable = [(s, m) for s, m in scored if s is not None]
    if not viable:
        return ("no_match", None)
    best = max(s for s, _ in viable)
    top = [m for s, m in viable if s == best]
    if len(top) > 1:
        return ("ambiguous", None)
    return ("selected", top[0])


def receives(registry, v, name: str) -> bool:
    """Can the script value v be the receiver of an instance method of
    class name: a proxy of an object of name or of a strict subclass."""
    if type(v) is not Table:
        return False
    ref = v.entries.get("__hostref")
    return type(ref) is HostObject and (
        ref.class_name == name or _walks_up_to(registry, ref.class_name, name))
