"""Host crossings that the second tier writes in place.

A call site records, weakly, the first native function it calls on
closures, and a read or store the first fallback it reaches (see
nodes).  When a rich unit is generated, a site whose recorded object
still lives gets its host crossing written in place, if the object is:

- a native function with a one-value form (NativeFunction.one), called
  with one argument: the site calls that form;

- the dispatcher of a host method whose chain has lone crossings that
  take as many arguments as the site passes: the site runs those
  crossings, in the chain's order, as one if and elifs, each the text
  the dispatcher itself was compiled from (registry.crossing), with its
  receiver and argument checks, its count of dispatches, its wrapping of
  host errors and its result check, its reads bound under a prefix of
  its own;
- the index or newindex fallback of a proxy's class, with a string
  literal key naming an instance field: the site reads or stores the
  field itself;
- the index or newindex fallback of an array's element tag: the site
  reads or stores an element itself, when the key is an integral number
  within the array's bounds.

Each runs behind a guard on the identity of that object, the callee or
the table's fallback, and any other value, or a call that no crossing
written takes, takes the site's generic path, which is what the site ran
before.  A read keeps the lookup in the table's own entries first and
counts its fallback fire in the member's cell (DispatchStats.cell) once
its value has converted: an int of an integer member becomes a float in
place, any other value goes through to_script.  A store converts the
common value in place, by the rule of the member's store
(Converter.storer): an integral number becomes an int for an integer
member, and a value of the member's as_is class is stored as it is; any
other value goes through the member's store.  An index out of bounds or
not integral, a store the member's store refuses, an int too large for
a float and a value that to_script refuses go to the fallback, so every
error keeps its class, text and line.  The unit holds each object weakly
and takes it, and what the crossing reads from it, once on entry (hold).
"""

import weakref

from .errors import HostException
from .objects import NativeFunction, Table
from .outbound import ELEMENTS
from .registry import INTEGER, READS, HostObject, crossing

_ENV = {"HostObject": HostObject, "HostException": HostException}


def hold(g, obj, read=None, target=None) -> str:
    """The local of g's unit that holds obj, a bridge object or native
    function the unit guards on.  The unit holds it weakly and takes it
    on entry, as _MISS, which no guard matches, once it is gone.  Given
    read, an expression over obj's local {k}, the local its value is
    bound to on entry instead, or target, if given."""
    held = g.held.get(obj)
    if held is None:
        g.n += 1
        held = g.held[obj] = f"k{g.n}", {}
        g.env[f"w{g.n}"] = weakref.ref(obj)
    k, reads = held
    if read is None:
        return k
    read = read.format(k=k)
    if read not in reads:
        reads[read] = target or f"{k}_{len(reads)}"
    return reads[read]


def entry(held: dict) -> list:
    """The first lines of a unit that holds the objects held, by hold:
    each object taken from its weak reference, and what is read from it
    while it lives."""
    lines = []
    for k, reads in held.values():
        lines += [f"    {k} = w{k[1:]}()", f"    if {k} is None: {k} = _MISS"]
        if reads:
            lines.append("    else: " + "; ".join(
                f"{target} = {read}" for read, target in reads.items()))
    return lines


def dispatcher(f, n: int):
    """f, if it is the dispatcher of a host method whose chain has a lone
    crossing that takes n arguments; else None."""
    if f.__class__ is NativeFunction:
        spelling = getattr(f.fn, "spelling", ())
        if any(len(entry[0]) == n for entry in spelling):
            return f
    return None


def native(g, f, n: int):
    """(the local that holds f, the local of its one-value form), if f is
    a native function with one and n is 1; else None."""
    if n != 1 or getattr(f, "one", None) is None:
        return None
    return hold(g, f), hold(g, f, "{k}.one")


def call(g, f, callee: str, args: list, one=None, many=None) -> None:
    """Write into g the crossings of the dispatcher f's chain that take
    as many arguments as args, as one if, run when the text callee is f,
    with args; the value goes to the temporary one as the site's first
    value, or to many as its value list, if either is given."""
    k = hold(g, f)
    p = k + "_"
    g.env.update(_ENV)
    head = "if"
    for i, (spelling, reads) in enumerate(zip(f.fn.spelling, f.fn.reads)):
        if len(spelling[0]) != len(args):
            continue
        names = [*READS, *(f"k{j}" for j in range(len(spelling[0])))]
        hold(g, f, f"{{k}}.fn.reads[{i}]",
             ", ".join(f"{p}e{i}_{x}" for x in names))
        sure = [j for j, is_class in enumerate(spelling[0])
                if g.kind(args[j]) is (Table if is_class
                                       else reads[len(READS) + j])]
        if spelling[5]:  # void: a result that is checked runs for its check
            done = [f"{one} = NIL" if one else f"{many} = _EMPTY" if many
                    else ""]
            if spelling[4] != "None":
                done.insert(0, "{v}")
            done = "; ".join(filter(None, done))
        else:
            done = f"{one} = {{v}}" if one else f"{many} = [{{v}}]" if many \
                else "{v}"
        text = crossing(spelling, done, p, args, sure, [f"{callee} is {k}"],
                        i)
        for line in text.replace("if", head, 1).split("\n"):
            if line.strip():
                g.emit(line)
        head = "elif"
    g.hosted += 1


def _place(g, h, name, kind: str, t: str, k: str):
    """(the guard, the place of the value, the member and its key) of a
    read (kind "index") or store ("newindex") of key k in table t, name
    being the key's literal string, if any, when h is a proxy's fallback
    of that kind and the key names an instance field or indexes an
    array; else None."""
    reads = getattr(h, "reads", None)
    if reads is None:
        return None
    members = reads[0]
    m = members.get(ELEMENTS)
    if m is not None:
        if g.kind(k) is str:  # an array's length, or no member
            return None
        i, e = g.temp(), g.temp()
        test = "" if g.kind(k) is float else f"{k}.__class__ is float and "
        more = (f" and {test}{k}.is_integer() and 0 <= ({i} := int({k}) - 1)"
                f" < len({e} := {t}.entries['__hostref'].elements)")
        at, name = f"{e}[{i}]", ELEMENTS
    elif name.__class__ is str and name != "__hostref" \
            and (m := members.get(name)) is not None and m.field:
        more, at = "", f"{t}.entries['__hostref'].fields[{k}]"
    else:
        return None
    g.hosted += 1
    return f"{t}.{kind}_handler is {hold(g, h)}{more}", at, m, name


def read(g, h, name, t: str, k: str, v: str, fallback: str) -> bool:
    """Write the read of key k in table t in place, when the value v,
    the temporary of t's own entry, is missing, if h, the index fallback
    the site saw, allows (see _place); fallback is the statement that
    reads v through the fallback.  Whether it was written."""
    place = _place(g, h, name, "index", t, k)
    if place is None:
        return False
    guard, at, m, key = place
    to_script = hold(g, h, "{k}.reads[1]")
    g.emit(f"if {v} is _MISS:")
    g.emit(f"    if {guard}:")
    g.emit("        try:")
    if m.tag is INTEGER:  # a script number, unless the host broke the tag
        g.emit(f"            {v} = {at}")
        g.emit(f"            {v} = float({v}) if {v}.__class__ is int else "
               f"{to_script}({v})")
    elif m.as_is is None:
        g.emit(f"            {v} = {to_script}({at})")
    else:
        g.emit(f"            {v} = {at}")
        g.emit(f"            if {v}.__class__ is not {m.as_is.__name__}: "
               f"{v} = {to_script}({v})")
    errors = "(BridgeScriptError, OverflowError)" if m.tag is INTEGER \
        else "BridgeScriptError"
    g.emit(f"        except {errors}: {fallback}")
    g.emit(f"        else: {hold(g, h, f'{{k}}.reads[0][{key!r}].fire')}"
           "[0] += 1")
    g.emit(f"    else: {fallback}")
    return True


def store(g, h, name, t: str, k: str, v: str, fallback: str) -> bool:
    """Write the store of v under key k in table t in place, if h, the
    newindex fallback the site saw, allows (see _place), as the first
    clause of an if; fallback is the statement that stores through the
    fallback.  Whether it was written."""
    place = _place(g, h, name, "newindex", t, k)
    if place is None:
        return False
    guard, at, m, key = place
    g.emit(f"if {guard}:")
    kind = g.kind(v)
    if kind is not None and kind is m.as_is:  # stored as it is
        g.emit(f"    {at} = {v}")
        return True
    common = None  # the test and store of the common value, if any
    if m.tag is INTEGER and kind in (None, float):  # an integral number
        test = f"{v}.is_integer()" if kind else \
            f"{v}.__class__ is float and {v}.is_integer()"
        common = f"if {test}: {at} = int({v})"
    elif m.as_is is not None and kind is None:
        common = f"if {v}.__class__ is {m.as_is.__name__}: {at} = {v}"
    pad = "    "
    if common is not None:
        g.emit(pad + common)
        g.emit(pad + "else:")
        pad += "    "
    g.emit(f"{pad}try: {at} = {hold(g, h, f'{{k}}.reads[0][{key!r}].store')}"
           f"({v})")
    g.emit(f"{pad}except BridgeScriptError: {fallback}")
    return True
