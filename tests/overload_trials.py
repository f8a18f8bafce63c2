"""Randomized overload-resolution instances: production vs. referee.

Builds a small class world (a three-deep chain, a class without a
default constructor, one interface), draws random candidate sets and
argument lists, and counts agreements between select_overload and the
brute-force referee in oracle.py.  Used by both the unit suite and the
acceptance gate.  run_host_trials does the same for host values: the
registry's choice for them must equal the referee's choice for the
script values to_script makes of them.  run_site_trials drives calls
through the outbound bridge's warm call sites, whose shape caches must
not change any verdict; run_host_site_trials does the same for the
registry's host-side sites behind call_method, instantiate and
wrapper_invoke.
"""

import math
import random
import sys
from dataclasses import dataclass

from bridgescript.convert import Converter
from bridgescript.errors import Ambiguous, NoMatch
from bridgescript.inbound import InboundBridge
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
    conv = Converter(reg, outb.build_proxy, inb.auto_wrap)
    outb.converter = conv
    inb.converter = conv
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


def site_class(name: str, sites: dict, seen: list) -> HostClassDescriptor:
    """A class of static methods, one per site name, each overload of
    which returns a label naming itself, "name[tags]", and appends its
    tags and the host arguments it got to seen."""
    def body(label, sig):
        def run(*args):
            seen.append((sig, args))
            return label
        return run
    return HostClassDescriptor(name=name, methods={
        f: [MethodDescriptor(f, sig, TEXT, True, body(f"{f}{list(sig)!r}",
                                                      sig))
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
    wrapper_invoke on an interface wrapper whose overloads each return
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
