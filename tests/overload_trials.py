"""Randomized overload-resolution instances: production vs. referee.

Builds a small class world (a three-deep chain, a class without a
default constructor, one interface), draws random candidate sets and
argument lists, and counts agreements between select_overload and the
brute-force referee in oracle.py.  Used by both the unit suite and the
acceptance gate.  run_host_trials does the same for host values: the
registry's choice for them must equal the referee's choice for the
script values to_script makes of them.  run_site_trials drives calls
through the outbound bridge's warm call sites, whose shape caches must
not change any verdict, and run_method_trials does the same for instance
methods called with ':' on receivers of every kind; run_host_site_trials does the same for the
registry's host-side sites behind call_method, on host objects and on
wrappers, and instantiate.  run_lone_entry_trials and
run_lone_dispatch_trials drive lone crossings and the chains of them
that overloaded methods and constructors get, host-side and
script-side, the latter also written in place in hot script functions;
their guards must hand every call they do not fit to the general path.
"""

import io
import math
import random
import sys
import weakref
from dataclasses import dataclass

from bridgescript import Interpreter
from bridgescript.convert import Converter
from bridgescript.errors import (
    Ambiguous,
    BridgeScriptError,
    NoMatch,
    ReceiverMismatch,
)
from bridgescript.inbound import InboundBridge
from bridgescript.nodes import K
from bridgescript.objects import NIL, NativeFunction, Table, table_get
from bridgescript.outbound import OutboundBridge
from bridgescript.registry import (
    BOOLEAN,
    FLOAT,
    INTEGER,
    TEXT,
    VOID,
    ArrayTag,
    ClassTag,
    HostClassDescriptor,
    HostRegistry,
    Incompatible,
    InterfaceTag,
    MethodDescriptor,
    ScriptWrapper,
    host_shape,
    resolve_overload,
)

import oracle


@dataclass(frozen=True)
class OverloadDecision:
    status: str  # "selected" | "no_match" | "ambiguous"
    method: MethodDescriptor | None = None
    args: tuple | None = None
    tied: tuple = ()


def select_overload(conv, cands: list, args: list) -> OverloadDecision:
    """The overload rule's verdict on the script values args, as a value."""
    try:
        m, converted = resolve_overload(cands, args, conv.to_host, "")
    except NoMatch:
        return OverloadDecision("no_match")
    except Ambiguous as e:
        return OverloadDecision("ambiguous", tied=e.tied)
    return OverloadDecision("selected", m, tuple(converted))


def _ctor(params=()):
    return MethodDescriptor("<init>", tuple(params), VOID, False, None)


def build_world(*extra, validate_invokes=False):
    """Registry plus a wired converter, no interpreter needed.  extra
    descriptors are registered beside the ora classes."""
    reg = HostRegistry(validate_invokes=validate_invokes)
    reg.register_class(HostClassDescriptor(
        name="ora.Base", constructors=[_ctor()]))
    reg.register_class(HostClassDescriptor(
        name="ora.Derived", base="ora.Base", constructors=[_ctor()]))
    reg.register_class(HostClassDescriptor(
        name="ora.Leaf", base="ora.Derived", constructors=[_ctor()]))
    reg.register_class(HostClassDescriptor(
        name="ora.NoDefault", constructors=[_ctor((FLOAT,))]))
    reg.register_class(HostClassDescriptor(
        name="ora.Ear", kind="interface",
        methods={"hear": [MethodDescriptor("hear", (TEXT,), VOID)]}))
    for d in extra:
        reg.register_class(d)
    reg.freeze()
    outb = OutboundBridge(reg)
    inb = InboundBridge(reg)
    conv = Converter(reg, outb, inb)
    return reg, conv


# the tag pool the randomized agreement run draws from
CORE_TAGS = (
    INTEGER, FLOAT, TEXT, BOOLEAN,
    ClassTag("ora.Base"), ClassTag("ora.Derived"),
    ClassTag("ora.Leaf"), ClassTag("ora.NoDefault"),
)
EXTRA_TAGS = (InterfaceTag("ora.Ear"), ArrayTag(INTEGER), ArrayTag(FLOAT))


def value_pool(reg, conv):
    """Script values covering every rule row, proxies included."""
    return [
        3.0, -1.0, 0.0, 1e9,       # integral numbers
        2.5, -0.75,                # fractional numbers
        "s", "",
        True, False,
        NIL,
        conv.to_script(reg.instantiate("ora.Base", [])),
        conv.to_script(reg.instantiate("ora.Derived", [])),
        conv.to_script(reg.instantiate("ora.Leaf", [])),
        conv.to_script(reg.array_new(INTEGER, 2)),
        conv.to_script(reg.array_new(FLOAT, 2)),
        conv.class_proxy("ora.Base"),
        Table(),
    ]


def run_trials(trials: int, seed: int = 20260814, extended: bool = False):
    """Returns (agreements, trials); any disagreement also records one
    example in the third slot for the failure message."""
    reg, conv = build_world()
    pool = value_pool(reg, conv)
    tags = CORE_TAGS + EXTRA_TAGS if extended else CORE_TAGS
    rng = random.Random(seed)
    agree = 0
    example = None
    for _ in range(trials):
        cands = []
        for _ in range(rng.randint(1, 4)):
            params = tuple(rng.choice(tags)
                           for _ in range(rng.randint(0, 3)))
            cands.append(MethodDescriptor("f", params, VOID, False, None))
        args = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        want_status, want_method = oracle.decide(reg, cands, args)
        got = select_overload(conv, cands, args)
        same = got.status == want_status and (
            want_status != "selected" or got.method is want_method)
        if same:
            agree += 1
        elif example is None:
            example = (cands, args, want_status, got.status)
    return agree, trials, example


def host_value_pool(reg):
    """Host values covering every host-side rule row except wrappers
    (whose scores differ from a plain table's by design)."""
    return [
        3, -1, 0,                  # ints
        3.0, 1e9,                  # integral floats
        2.5, -0.75,                # fractional floats
        "s", "",
        True, False,
        None,
        reg.instantiate("ora.Base", []),
        reg.instantiate("ora.Derived", []),
        reg.instantiate("ora.Leaf", []),
        reg.array_new(INTEGER, 2),
        reg.array_new(FLOAT, 2),
    ]


def host_decide(reg, cands, args):
    """The overload rule's verdict on host values: (status, method)."""
    try:
        m, _ = resolve_overload(cands, args, reg.score_host, "ora")
    except NoMatch:
        return "no_match", None
    except Ambiguous:
        return "ambiguous", None
    return "selected", m


def run_host_trials(trials: int, seed: int = 20261018):
    """run_trials for the overload rule over host values (score_host)."""
    reg, conv = build_world()
    pool = host_value_pool(reg)
    tags = CORE_TAGS + EXTRA_TAGS
    rng = random.Random(seed)
    agree = 0
    example = None
    for _ in range(trials):
        cands = []
        for _ in range(rng.randint(1, 4)):
            params = tuple(rng.choice(tags)
                           for _ in range(rng.randint(0, 3)))
            cands.append(MethodDescriptor("f", params, VOID, False, None))
        args = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        want_status, want_method = oracle.decide(
            reg, cands, [conv.to_script(h) for h in args])
        got = host_decide(reg, cands, args)
        if got == (want_status, want_method):
            agree += 1
        elif example is None:
            example = (cands, args, want_status, got[0])
    return agree, trials, example


def site_class(name: str, sites: dict, seen: list,
               static: bool = True) -> HostClassDescriptor:
    """A class of static methods, or instance methods if not static, one
    per site name, each overload of which returns a label naming itself,
    "name[tags]", and appends its tags and the host arguments it got
    (after the receiver) to seen."""
    def body(label, sig):
        def run(*args):
            seen.append((sig, args if static else args[1:]))
            return label
        return run
    return HostClassDescriptor(name=name, methods={
        f: [MethodDescriptor(f, sig, TEXT, static,
                             body(f"{f}{list(sig)!r}", sig))
            for sig in sigs]
        for f, sigs in sites.items()})


def converted_as_declared(reg, seen: list) -> bool:
    """Did the body that ran last get host values fitting its tags?"""
    sig, args = seen.pop()
    return all(reg.conforms(h, tag) for h, tag in zip(args, sig))


def site_decide(reg, owner: str, name: str, args) -> tuple:
    """The referee's verdict on a call of owner.name, as the label the
    chosen overload returns, or the status of a refused call."""
    cands = reg.lookup_class(owner).methods[name]
    status, m = oracle.decide(reg, cands, args)
    if status != "selected":
        return status, None
    return status, f"{name}{list(m.params)!r}"


# the status of a call each refusal stands for
REFUSALS = {ReceiverMismatch: "receiver", NoMatch: "no_match",
            Ambiguous: "ambiguous"}


def site_call(dispatcher, args) -> tuple:
    """A call through a call site's dispatcher, as site_decide reports."""
    try:
        vals = dispatcher.fn(args)
    except NoMatch:
        return "no_match", None
    except Ambiguous:
        return "ambiguous", None
    return "selected", vals[0]


def run_site_trials(calls: int, seed: int = 20261019, sites: int = 6):
    """Drive calls with arguments from value_pool through the call sites
    of `sites` random static methods, warm after their first call.  Each
    site sees many argument shapes, repeated and alternating, some of
    them more than the site caches; every call must do what the referee
    decides, and pass the chosen body values that fit its tags.
    Returns (agreements, calls, first disagreement)."""
    rng = random.Random(seed)
    tags = CORE_TAGS + EXTRA_TAGS
    overloads = {}
    for i in range(sites):
        sigs = {tuple(rng.choice(tags) for _ in range(rng.randint(0, 2)))
                for _ in range(rng.randint(1, 4))}
        overloads[f"f{i}"] = sorted(sigs, key=repr)
    seen = []
    reg, conv = build_world(site_class("ora.Sites", overloads, seen))
    pool = value_pool(reg, conv)
    # values each tag accepts, so that most calls find an overload
    fits = {tag: [v for v in pool
                  if oracle.score_value(reg, v, tag) is not None]
            for tag in tags}
    proxy = conv.class_proxy("ora.Sites")
    names = sorted(overloads)
    agree = 0
    example = None
    for _ in range(calls):
        name = rng.choice(names)
        sig = rng.choice(overloads[name])
        if rng.random() < 0.1:  # any arity, any values
            sig = (None,) * rng.randint(0, 2)
        args = [rng.choice(fits[tag] if tag in fits and rng.random() < 0.75
                           else pool)
                for tag in sig]
        want = site_decide(reg, "ora.Sites", name, args)
        got = site_call(table_get(proxy, name), args)
        if got == want and (got[0] != "selected"
                            or converted_as_declared(reg, seen)):
            agree += 1
        elif example is None:
            example = (name, args, want, got)
    return agree, calls, example


def run_method_trials(calls: int, seed: int = 20261021, sites: int = 6):
    """run_site_trials for instance methods called with ':'.  The class
    ora.Methods has lone overloads of FLOAT, TEXT and BOOLEAN slots of
    arity 0, 1 and 2, and `sites` random overload sets, half of them of
    those slots only; ora.MethodsKid inherits them all.  Each call takes
    the dispatcher from a proxy of either class and passes as receiver a
    proxy of either, of the unrelated ora.Base, or a plain table.  It
    must raise ReceiverMismatch where the receiver is no object of the
    dispatcher's class or a subclass, else do what the referee decides
    and pass the chosen body values that fit its tags; and it must count
    exactly one dispatch.  Returns (agreements, calls, first
    disagreement)."""
    rng = random.Random(seed)
    as_is = (FLOAT, TEXT, BOOLEAN)
    overloads = {"lone0": [()], "lone1": [(rng.choice(as_is),)],
                 "lone2": [(rng.choice(as_is), rng.choice(as_is))]}
    for i in range(sites):
        tags = as_is if i % 2 == 0 else CORE_TAGS + EXTRA_TAGS
        overloads[f"f{i}"] = sorted(
            {tuple(rng.choice(tags) for _ in range(rng.randint(0, 2)))
             for _ in range(rng.randint(1, 4))}, key=repr)
    seen = []
    reg, conv = build_world(
        site_class("ora.Methods", overloads, seen, static=False),
        HostClassDescriptor(name="ora.MethodsKid", base="ora.Methods"))
    stats = conv.proxy_factory.__self__.stats
    pool = value_pool(reg, conv)
    fits = {tag: [v for v in pool
                  if oracle.score_value(reg, v, tag) is not None]
            for tag in CORE_TAGS + EXTRA_TAGS}
    owners = ("ora.Methods", "ora.MethodsKid")
    receivers = [conv.to_script(reg.instantiate(n, []))
                 for n in (*owners, "ora.Base")] + [Table()]
    names = sorted(overloads)
    agree = 0
    example = None
    for _ in range(calls):
        name = rng.choice(names)
        k = rng.randrange(2)
        owner = owners[k]
        receiver = receivers[k] if rng.random() < 0.6 \
            else rng.choice(receivers)
        sig = rng.choice(overloads[name])
        if rng.random() < 0.1:  # any arity, any values
            sig = (None,) * rng.randint(0, 2)
        args = [rng.choice(fits[tag] if tag in fits and rng.random() < 0.75
                           else pool)
                for tag in sig]
        if oracle.receives(reg, receiver, owner):
            want = site_decide(reg, owner, name, args)
        else:
            want = ("receiver", None)
        before = stats.dispatches
        try:
            got = site_call(table_get(receivers[k], name), [receiver, *args])
        except ReceiverMismatch:
            got = ("receiver", None)
        if got == want and stats.dispatches == before + 1 and (
                got[0] != "selected" or converted_as_declared(reg, seen)):
            agree += 1
        elif example is None:
            example = (owner, name, receiver, args, want, got)
    return agree, calls, example


def host_site_pool(reg, conv):
    """Host values for the host-side sites: host_value_pool's rows plus
    the ones the referee cannot judge (ints beyond the float range,
    wrappers) and ±inf, nan and more array element tags."""
    return host_value_pool(reg) + [
        2 ** 60, 10 ** 400, -10 ** 400,
        math.inf, -math.inf, math.nan,
        reg.array_new(TEXT, 1),
        conv.auto_wrap(Table(), "ora.Ear"),
        conv.auto_wrap(Table(), "ora.Base"),
        conv.auto_wrap(Table(), "ora.Derived"),
    ]


def _beyond_referee(h) -> bool:
    """Host values whose score the referee cannot restate from the
    script value: a wrapper (scored by conformance) and an int that
    makes no script number."""
    return h.__class__ is ScriptWrapper or (
        type(h) is int and abs(h) > sys.float_info.max)


def run_host_site_trials(calls: int, seed: int = 20261020):
    """Drive host values through warm host-side sites: call_method on an
    object of a subclass of the declaring class, instantiate, and
    call_method on an interface wrapper whose overloads each return
    their own interface.  Every site sees more argument shapes than it
    caches.  Each call must choose what oracle.decide chooses for the
    script values to_script makes, or, where those values are beyond
    the referee, what a direct resolve_overload call chooses; a body
    must get values that fit its tags.  Returns (agreements, calls,
    first disagreement, the most shapes one site saw)."""
    rng = random.Random(seed)
    tags = CORE_TAGS + EXTRA_TAGS

    def sigs():
        return sorted({tuple(rng.choice(tags)
                             for _ in range(rng.randint(0, 2)))
                       for _ in range(rng.randint(2, 4))}, key=repr)

    seen = []

    def body(sig):
        def run(obj, *args):
            seen.append((sig, args))
            return repr(sig)
        return run

    names = ["f0", "f1", "f2"]
    host = HostClassDescriptor(
        name="ora.Host",
        methods={f: [MethodDescriptor(f, sig, TEXT, False, body(sig))
                     for sig in sigs()] for f in names},
        constructors=[MethodDescriptor("<init>", sig, VOID, False, body(sig))
                      for sig in sigs()])
    kid = HostClassDescriptor(name="ora.HostKid", base="ora.Host")
    on = sigs()
    results = [HostClassDescriptor(name=f"ora.R{k}", kind="interface")
               for k in range(len(on))]
    hearer = HostClassDescriptor(name="ora.Hearer", kind="interface", methods={
        "on": [MethodDescriptor("on", sig, InterfaceTag(f"ora.R{k}"))
               for k, sig in enumerate(on)]})
    reg, conv = build_world(host, kid, *results, hearer)
    pool = host_site_pool(reg, conv)
    fits = {tag: [h for h in pool
                  if reg.score_host(h, tag).__class__ is not Incompatible]
            for tag in tags}
    receiver = reg.instantiate("ora.HostKid", [])
    listener = Table()
    listener.entries["on"] = NativeFunction(lambda args: [args[0]], "on")
    w = conv.auto_wrap(listener, "ora.Hearer")
    flat = reg.lookup_class

    def label(m):  # what a call that chose m returns, or its body saw
        if m.name == "on":
            return f"ora.R{on.index(m.params)}"
        return repr(m.params)

    def production(kind, args):
        if kind == "<init>":
            reg.instantiate("ora.Host", args)
            return repr(seen[-1][0])
        if kind == "on":
            return reg.call_method(w, "on", args).target_type
        return reg.call_method(receiver, kind, args)

    kinds = {f: flat("ora.Host").methods[f] for f in names}
    kinds["<init>"] = flat("ora.Host").constructors
    kinds["on"] = flat("ora.Hearer").methods["on"]
    shapes = {kind: set() for kind in kinds}
    agree = 0
    example = None
    for _ in range(calls):
        kind = rng.choice(sorted(kinds))
        cands = kinds[kind]
        sig = rng.choice(cands).params
        if rng.random() < 0.1:  # any arity, any values
            sig = (None,) * rng.randint(0, 2)
        args = [rng.choice(fits[tag] if tag in fits and rng.random() < 0.75
                           else pool)
                for tag in sig]
        shapes[kind].add(tuple(map(host_shape, args)))
        if any(map(_beyond_referee, args)):
            status, m = host_decide(reg, cands, args)
        else:
            status, m = oracle.decide(
                reg, cands, [conv.to_script(h) for h in args])
        want = (status, label(m) if status == "selected" else None)
        seen.clear()
        try:
            got = ("selected", production(kind, args))
        except NoMatch:
            got = ("no_match", None)
        except Ambiguous:
            got = ("ambiguous", None)
        if got == want and (got[0] != "selected" or kind == "on"
                            or converted_as_declared(reg, seen)):
            agree += 1
        elif example is None:
            example = (kind, args, want, got)
    return agree, calls, example, max(map(len, shapes.values()))


# the slots a lone entry's guard tests by class
LONE_TAGS = (FLOAT, TEXT, BOOLEAN, ClassTag("ora.Base"),
             ClassTag("ora.Derived"), ClassTag("ora.Leaf"))


def _same_values(got, want) -> bool:
    """Are got and want the same host values, class and all?"""
    return len(got) == len(want) and all(
        g is w or (g.__class__ is w.__class__ and g == w)
        for g, w in zip(got, want))


def run_lone_entry_trials(calls: int, seed: int = 20261022,
                          validate_invokes: bool = False):
    """Drive host values through lone host-side entries and their
    chains: instance methods and constructors with one overload of up to
    two FLOAT, TEXT, BOOLEAN or class slots (every one-slot signature
    and a few random pairs), and with several overloads, some lone (a
    FLOAT, a TEXT, a class, a class and a FLOAT slot) and some not (an
    INTEGER or an interface slot), called on objects of the declaring
    class and of a subclass, whose entries are their own; and the lone
    entries of an interface wrapper, one nullary, one of a FLOAT slot,
    one of a class slot and one of a TEXT and a FLOAT slot, which takes
    the call site.  Most arguments fit their slots exactly or are values
    a slot takes by coercion (a subclass object, None, an int in a float
    slot, a wrapper); the rest are any host values, objects of unrelated
    classes among them, in the slots' arity or any other.  Each call
    must choose what oracle.decide chooses for the script values
    to_script makes, or, beyond the referee, what a direct
    resolve_overload call chooses.  The chosen method or constructor
    body must run and get exactly the values resolve_overload converts
    the arguments to, a method's int result come back as its FLOAT
    return tag holds it, and an interface method's result be what the
    table returned, converted to its return tag.  Returns (agreements,
    calls, first disagreement, the number of lone entries the registry
    built, the number of its entries)."""
    rng = random.Random(seed)
    base, iface = ClassTag("ora.Base"), InterfaceTag("ora.Ear")
    derived, leaf = LONE_TAGS[4:]
    sigs = [[()]] + [[(tag,)] for tag in LONE_TAGS] + sorted(
        {((rng.choice(LONE_TAGS), rng.choice(LONE_TAGS)),)
         for _ in range(6)}, key=repr) + [
        [(FLOAT,), (TEXT,), (base,), (base, FLOAT), (INTEGER,), (iface,)],
        [(derived, FLOAT), (base, INTEGER), (leaf, leaf), (BOOLEAN, TEXT),
         (INTEGER, INTEGER)]]
    seen = []

    def body(sig):
        def run(obj, *args):
            seen.append((sig, args))
            return len(args)  # an int: the FLOAT return tag makes it float
        return run

    lone = HostClassDescriptor(name="ora.Lone", methods={
        f"m{i}": [MethodDescriptor(f"m{i}", sig, FLOAT, False, body(sig))
                  for sig in group]
        for i, group in enumerate(sigs)})
    kid = HostClassDescriptor(name="ora.LoneKid", base="ora.Lone")
    makes = [HostClassDescriptor(name=f"ora.Make{i}", constructors=[
        MethodDescriptor("<init>", sig, VOID, False, body(sig))
        for sig in group])
        for i, group in enumerate(sigs)]
    ear = HostClassDescriptor(name="ora.LoneEar", kind="interface", methods={
        "ping": [MethodDescriptor("ping", (), TEXT)],
        "echo": [MethodDescriptor("echo", (FLOAT,), FLOAT)],
        "pair": [MethodDescriptor("pair", (TEXT, FLOAT), FLOAT)],
        "hear": [MethodDescriptor("hear", (base,), base)]})
    reg, conv = build_world(lone, kid, *makes, ear,
                            validate_invokes=validate_invokes)
    receivers = [reg.instantiate("ora.Lone", []),
                 reg.instantiate("ora.LoneKid", [])]
    pool = host_site_pool(reg, conv) + receivers  # of no slot's class
    exact = {FLOAT: [3.0, 2.5, -0.75, math.inf, math.nan], TEXT: ["s", ""],
             BOOLEAN: [True, False], INTEGER: [3, -1],
             iface: [conv.auto_wrap(Table(), "ora.Ear")]}
    for tag in LONE_TAGS[3:]:
        exact[tag] = [reg.instantiate(tag.name, [])]
    fits = {tag: [h for h in pool
                  if reg.score_host(h, tag).__class__ is not Incompatible]
            for tag in exact}
    table = Table()
    table.entries["ping"] = NativeFunction(lambda args: ["pong"], "ping")
    table.entries["echo"] = NativeFunction(lambda args: [args[1]], "echo")
    table.entries["pair"] = NativeFunction(lambda args: [args[2]], "pair")
    table.entries["hear"] = NativeFunction(lambda args: [args[1]], "hear")
    w = conv.auto_wrap(table, "ora.LoneEar")
    kinds = [("method", i) for i in range(len(sigs))] + \
        [("new", i) for i in range(len(sigs))] + \
        [("ping", 0), ("echo", 0), ("hear", 0), ("pair", 0)]
    agree = 0
    example = None
    for _ in range(calls):
        kind, i = rng.choice(kinds)
        if kind in ("ping", "echo", "hear", "pair"):
            cands = reg.lookup_class("ora.LoneEar").methods[kind]
        elif kind == "new":
            cands = reg.constructors(f"ora.Make{i}")
        else:
            cands = reg.lookup_class("ora.Lone").methods[f"m{i}"]
        r = rng.random()
        params = rng.choice(cands).params
        if r < 0.1:  # any arity, any values
            args = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        elif r < 0.3:  # any values in the slots
            args = [rng.choice(pool) for _ in params]
        else:
            table_of = fits if r < 0.6 else exact
            args = [rng.choice(table_of[tag]) for tag in params]
        if any(map(_beyond_referee, args)):
            want, m = host_decide(reg, cands, args)
        else:
            want, m = oracle.decide(
                reg, cands, [conv.to_script(h) for h in args])
        seen.clear()
        try:
            if kind == "new":
                result = reg.instantiate(f"ora.Make{i}", args)
            elif kind in ("ping", "echo", "hear", "pair"):
                result = reg.call_method(w, kind, args)
            else:
                result = reg.call_method(rng.choice(receivers), f"m{i}",
                                         args)
            got = "selected"
        except NoMatch:
            got = "no_match"
        except Ambiguous:
            got = "ambiguous"
        ok = got == want
        if ok and got == "selected":
            converted = resolve_overload(cands, args, reg.score_host,
                                         "ora")[1]
            if kind == "ping":
                ok = result == "pong"
            elif kind == "echo":  # the argument as its slot holds it
                ok = _same_values([result], converted)
            elif kind == "pair":
                ok = _same_values([result], converted[1:])
            elif kind == "hear":  # a wrapper's table comes back a Base
                h = converted[0]
                ok = result is h if h.__class__ is not ScriptWrapper else (
                    result.script_object is h.script_object
                    and result.target_type == "ora.Base")
            elif kind == "new":
                ok = result.class_name == f"ora.Make{i}" \
                    and seen[-1][0] == m.params \
                    and _same_values(seen[-1][1], converted)
            else:
                ok = seen[-1][0] == m.params \
                    and _same_values(seen[-1][1], converted) \
                    and _same_values([result], [float(len(args))])
        if ok:
            agree += 1
        elif example is None:
            example = (kind, params, args, want, got)
    # a lone entry is an invoker's form; a general one is named entry
    lone = sum(e.__name__ == "invoke" for e in reg.entries.values())
    return agree, calls, example, lone, len(reg.entries)


def run_lone_dispatch_trials(calls: int, seed: int = 20261023,
                             validate_invokes: bool = False):
    """Drive script values through lone script-side crossings and their
    chains: instance methods with one overload of one class slot, of two
    class slots, of three FLOAT, TEXT and BOOLEAN slots and of a mix, and
    two with several overloads, some lone (a FLOAT, a TEXT, a class, a
    class and a FLOAT slot) and some not (an INTEGER or an interface
    slot), called with ':' on proxies of ora.Lones and of its subclass
    ora.LonesKid; and classes whose constructors have one of those sets
    of signatures, called through host_new_instance.  Receivers and
    arguments are of every kind: proxies of the exact class, of a
    subclass and of an unrelated class, nil, plain tables, a class
    proxy, array proxies and plain values, in the slots' arity or any
    other, and a method call sometimes has no receiver at all.  Each
    call runs twice: as the closure tier calls, and through a script
    function that calls its first argument with the rest, made hot
    (generated, with the crossings of the callee its site saw written in
    place) before its first trial.  A method call must raise
    ReceiverMismatch where the receiver is no object of the dispatcher's
    class or a subclass, else do what oracle.decide decides, and count
    exactly one dispatch; a constructor call must do what the referee
    decides and make an object of its class.  A body must get exactly
    the values resolve_overload converts the arguments to.  Returns
    (agreements, calls, first disagreement, the number of crossings
    built that are the registry's lone form, the number built, the
    number of hot functions that write their callee's crossings in
    place)."""
    rng = random.Random(seed)
    as_is = (FLOAT, TEXT, BOOLEAN)
    base, derived, leaf = (ClassTag(f"ora.{n}")
                           for n in ("Base", "Derived", "Leaf"))
    sigs = {"one": [(base,)], "oneD": [(derived,)], "two": [(base, leaf)],
            "three": [tuple(rng.choice(as_is) for _ in range(3))],
            "mixed": [(rng.choice(as_is), derived, rng.choice(as_is))],
            "over": [(FLOAT,), (TEXT,), (base,), (base, FLOAT), (INTEGER,),
                     (InterfaceTag("ora.Ear"),)],
            "pair": [(derived, FLOAT), (base, INTEGER), (leaf, leaf),
                     (BOOLEAN, TEXT), (INTEGER, INTEGER)]}
    seen = []  # per call that reached a body, (tags, the values it got)

    def body(sig):
        def run(obj, *args):
            seen.append((sig, args))
        return run

    news = [HostClassDescriptor(name=f"ora.New{i}", constructors=[
        MethodDescriptor("<init>", sig, VOID, False, body(sig))
        for sig in group]) for i, group in enumerate(sigs.values())]
    reg, _ = build_world(
        site_class("ora.Lones", sigs, seen, static=False),
        HostClassDescriptor(name="ora.LonesKid", base="ora.Lones"), *news,
        validate_invokes=validate_invokes)
    it = Interpreter(reg, out=io.StringIO())
    conv, outb = it.converter, it.outbound
    pool = value_pool(reg, conv)
    fits = {tag: [v for v in pool
                  if oracle.score_value(reg, v, tag) is not None]
            for tag in (*as_is, base, derived, leaf)}
    owners = ("ora.Lones", "ora.LonesKid")
    receivers = [conv.to_script(reg.instantiate(n, [])) for n in owners]
    others = pool + receivers  # a receiver of any kind
    kinds = [("method", f) for f in sigs] + \
        [("new", f"ora.New{i}") for i in range(len(news))]
    new_instance = it.global_value("hostNewInstance")
    hot = {}  # (callee, arity) -> its hot script function

    def tiers(f, given):
        """Call f with given on closures, then through its hot function;
        for each, the outcome as site_call reports it, or ("receiver",
        None), what the body that ran got, and the dispatches counted."""
        fn = hot.get((f, len(given)))
        if fn is None:
            params = ", ".join(f"a{j}" for j in range(len(given)))
            fn = hot[f, len(given)] = it.run(
                f"return function(f, {params}) return f({params}) end"
                if params else "return function(f) return f() end")[0]
            for _ in range(K):  # the site first sees f on closures
                try:
                    fn.invoke([f, *given])
                except BridgeScriptError:
                    pass
        got = []
        for run in (f.fn, lambda args: fn.invoke([f, *args])):
            before = outb.stats.dispatches
            seen.clear()
            try:
                vals = run(given)
                out = ("selected", vals[0] if vals else NIL), seen[-1]
            except (ReceiverMismatch, NoMatch, Ambiguous) as e:
                out = (REFUSALS[e.__class__], None), None
            got.append((*out, outb.stats.dispatches - before))
        return got

    agree = 0
    example = None
    for _ in range(calls):
        kind, name = rng.choice(kinds)
        cands = reg.constructors(name) if kind == "new" \
            else reg.lookup_class("ora.Lones").methods[name]
        sig = rng.choice(cands).params
        if rng.random() < 0.1:  # any arity, any values
            sig = (None,) * rng.randint(0, 4)
        args = [rng.choice(fits[tag] if tag in fits and rng.random() < 0.75
                           else pool)
                for tag in sig]
        if kind == "new":
            status, m = oracle.decide(reg, cands, args)
            want = status, None if m is None else ["object", name]
            got = tiers(new_instance, [name, *args])
            # hostNewInstance counts no dispatch
            got = [(("selected", ["object", out[0][1].entries[
                "__hostref"].class_name]), *out[1:])
                if out[1] is not None else out for out in got]
            counted = 0
        else:
            k = rng.randrange(2)
            owner = owners[k]
            receiver = receivers[k] if rng.random() < 0.6 \
                else rng.choice(others)
            given = [receiver, *args] if rng.random() < 0.95 else []
            if given and oracle.receives(reg, receiver, owner):
                status, m = oracle.decide(reg, cands, args)
                want = site_decide(reg, owner, name, args)
            else:
                m, want = None, ("receiver", None)
            got = tiers(table_get(receivers[k], name), given)
            counted = 1
        ok = True
        for outcome, body_got, dispatches in got:
            ok = ok and outcome == want and dispatches == counted
            if ok and m is not None:  # the referee's body, its values
                converted = resolve_overload(cands, args, conv.to_host,
                                             "ora")[1]
                ok = body_got[0] == m.params \
                    and _same_values(body_got[1], converted)
        if ok:
            agree += 1
        elif example is None:
            example = (kind, name, sig, args, want, got)
    built = [receivers[k].entries[f].fn for k in range(2) for f in sigs
             if f in receivers[k].entries] + list(outb._constructors.values())
    lone = sum(f.__code__.co_filename == "<lone>" for f in built)
    in_place = sum(any(v.__class__ is weakref.ref and v() is f
                       for v in fn.proto.body.__globals__.values())
                   for (f, _), fn in hot.items())
    return agree, calls, example, lone, len(built), in_place
