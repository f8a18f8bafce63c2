"""Conversion rules, the proxy cache, and overload selection.

The selection tests lean on two randomized harnesses: overload_trials
compares the overload rule on script values (select_overload) and on
host values (score_host) with the brute-force referee, and the
round-trip properties draw fresh primitive values every run.
"""

import math
import random

import pytest

from bridgescript.convert import Converted, Incompatible
from bridgescript.errors import ClassNotFound, NoMatch
from bridgescript.objects import NIL, Table
from bridgescript.registry import (
    BOOLEAN,
    FLOAT,
    INTEGER,
    SHAPES_PER_SITE,
    TEXT,
    VOID,
    ArrayTag,
    ClassTag,
    InterfaceTag,
    MethodDescriptor,
    resolve_overload,
)

from overload_trials import (
    build_world,
    host_decide,
    run_host_site_trials,
    run_host_trials,
    run_lone_entry_trials,
    run_trials,
    select_overload,
)


@pytest.fixture(scope="module")
def world():
    return build_world()


def md(params):
    return MethodDescriptor("f", tuple(params), VOID, False, None)


# ------------------------------------------------------------- rule table

def test_number_conversions(world):
    reg, conv = world
    r = conv.to_host(3.0, FLOAT)
    assert isinstance(r, Converted) and r.value == 3.0 and r.score == 2
    r = conv.to_host(3.0, INTEGER)
    assert isinstance(r, Converted) and r.value == 3 and r.score == 1
    assert type(r.value) is int
    assert isinstance(conv.to_host(2.5, INTEGER), Incompatible)
    assert isinstance(conv.to_host("3", FLOAT), Incompatible)


def test_booleans_never_cross_with_numbers(world):
    reg, conv = world
    assert isinstance(conv.to_host(True, FLOAT), Incompatible)
    assert isinstance(conv.to_host(True, INTEGER), Incompatible)
    assert isinstance(conv.to_host(1.0, BOOLEAN), Incompatible)
    r = conv.to_host(False, BOOLEAN)
    assert isinstance(r, Converted) and r.value is False and r.score == 2


def test_text(world):
    reg, conv = world
    assert conv.to_host("s", TEXT).score == 2
    assert isinstance(conv.to_host(1.0, TEXT), Incompatible)
    assert isinstance(conv.to_host(NIL, TEXT), Incompatible)


def test_nil_coerces_to_reference_tags_only(world):
    reg, conv = world
    for tag in (ClassTag("ora.Base"), InterfaceTag("ora.Ear"),
                ArrayTag(INTEGER)):
        r = conv.to_host(NIL, tag)
        assert isinstance(r, Converted) and r.value is None and r.score == 1
    for tag in (FLOAT, INTEGER, TEXT, BOOLEAN):
        assert isinstance(conv.to_host(NIL, tag), Incompatible)


def test_proxy_class_scoring(world):
    reg, conv = world
    leaf = reg.instantiate("ora.Leaf", [])
    proxy = conv.to_script(leaf)
    assert conv.to_host(proxy, ClassTag("ora.Leaf")).score == 2
    assert conv.to_host(proxy, ClassTag("ora.Derived")).score == 1
    assert conv.to_host(proxy, ClassTag("ora.Base")).score == 1
    assert conv.to_host(proxy, ClassTag("ora.NoDefault")).__class__ \
        is Incompatible
    # exact and subclass conversions hand back the host object itself
    assert conv.to_host(proxy, ClassTag("ora.Base")).value is leaf


def test_plain_table_wraps_when_target_allows(world):
    reg, conv = world
    t = Table()
    r = conv.to_host(t, ClassTag("ora.Base"))
    assert isinstance(r, Converted) and r.score == 1
    assert r.value.script_object is t
    r = conv.to_host(t, InterfaceTag("ora.Ear"))
    assert isinstance(r, Converted) and r.score == 1
    # no zero-argument constructor, so nothing can back the table
    assert isinstance(conv.to_host(t, ClassTag("ora.NoDefault")),
                      Incompatible)


def test_proxies_do_not_wrap(world):
    reg, conv = world
    proxy = conv.to_script(reg.instantiate("ora.Base", []))
    assert isinstance(conv.to_host(proxy, InterfaceTag("ora.Ear")),
                      Incompatible)
    arr_proxy = conv.to_script(reg.array_new(INTEGER, 1))
    assert isinstance(conv.to_host(arr_proxy, ClassTag("ora.Base")),
                      Incompatible)
    cls_proxy = conv.class_proxy("ora.Base")
    assert isinstance(conv.to_host(cls_proxy, ClassTag("ora.Base")),
                      Incompatible)


def test_array_conversions(world):
    reg, conv = world
    ints = conv.to_script(reg.array_new(INTEGER, 2))
    r = conv.to_host(ints, ArrayTag(INTEGER))
    assert isinstance(r, Converted) and r.score == 2
    assert isinstance(conv.to_host(ints, ArrayTag(FLOAT)), Incompatible)
    assert isinstance(conv.to_host(Table(), ArrayTag(INTEGER)), Incompatible)


# ------------------------------------------------------- host to script

def test_to_script_primitives(world):
    reg, conv = world
    assert conv.to_script(None) is NIL
    assert conv.to_script(7) == 7.0 and type(conv.to_script(7)) is float
    assert conv.to_script(2.5) == 2.5
    assert conv.to_script("s") == "s"
    assert conv.to_script(True) is True


def test_proxy_identity_is_stable(world):
    reg, conv = world
    a = reg.instantiate("ora.Base", [])
    b = reg.instantiate("ora.Base", [])
    pa = conv.to_script(a)
    assert conv.to_script(b) is not pa
    for _ in range(5):
        assert conv.to_script(a) is pa


def test_wrapper_unwraps_to_original_table(world):
    reg, conv = world
    t = Table()
    w = conv.to_host(t, ClassTag("ora.Base")).value
    assert conv.to_script(w) is t


def test_class_proxy_requires_known_name(world):
    reg, conv = world
    assert conv.class_proxy("ora.Base") is conv.class_proxy("ora.Base")
    with pytest.raises(ClassNotFound):
        conv.class_proxy("ora.Missing")


# --------------------------------------------------------- round-trips

def test_primitive_round_trips(world):
    """to_script(to_host(v, tag)) == v whenever to_host converts."""
    reg, conv = world
    rng = random.Random(99)
    checked = 0
    for _ in range(1500):
        choice = rng.randrange(4)
        if choice == 0:
            v, tag = float(rng.randint(-2**40, 2**40)), INTEGER
        elif choice == 1:
            v, tag = rng.uniform(-1e9, 1e9), FLOAT
        elif choice == 2:
            v = "".join(chr(rng.randrange(32, 127))
                        for _ in range(rng.randrange(8)))
            tag = TEXT
        else:
            v, tag = rng.random() < 0.5, BOOLEAN
        r = conv.to_host(v, tag)
        assert isinstance(r, Converted)
        back = conv.to_script(r.value)
        assert back == v and type(back) is type(v)
        checked += 1
    assert checked == 1500


def test_proxy_identity_under_random_interleaving(world):
    reg, conv = world
    rng = random.Random(7)
    objs = [reg.instantiate("ora.Base", []) for _ in range(20)]
    first = {id(o): conv.to_script(o) for o in objs}
    for _ in range(1000):
        o = rng.choice(objs)
        assert conv.to_script(o) is first[id(o)]


def test_wrapper_proxy_involution(world):
    """to_host(to_script(h), class-of-h) gives back exactly h."""
    reg, conv = world
    rng = random.Random(21)
    names = ["ora.Base", "ora.Derived", "ora.Leaf"]
    for _ in range(1000):
        h = reg.instantiate(rng.choice(names), [])
        r = conv.to_host(conv.to_script(h), ClassTag(h.class_name))
        assert isinstance(r, Converted) and r.value is h and r.score == 2


# ----------------------------------------------------- overload selection

def test_exact_beats_coercion(world):
    reg, conv = world
    f_int, f_float = md([INTEGER]), md([FLOAT])
    d = select_overload(conv, [f_int, f_float], [3.0])
    assert d.status == "selected" and d.method is f_float
    d = select_overload(conv, [f_int, md([TEXT])], [3.0])
    assert d.status == "selected" and d.method is f_int


def test_no_match_and_ambiguous(world):
    reg, conv = world
    assert select_overload(conv, [md([INTEGER]), md([FLOAT])],
                           ["x"]).status == "no_match"
    d = select_overload(conv, [md([FLOAT]), md([FLOAT])], [1.0])
    assert d.status == "ambiguous" and len(d.tied) == 2


def test_nil_prefers_reference_overload(world):
    reg, conv = world
    f_ref, f_text = md([ClassTag("ora.Base")]), md([TEXT])
    d = select_overload(conv, [f_ref, f_text], [NIL])
    assert d.status == "selected" and d.method is f_ref
    # but a primitive exact match outranks the nil coercion
    d = select_overload(conv, [f_ref, f_text], ["s"])
    assert d.method is f_text


def test_selected_carries_converted_args(world):
    reg, conv = world
    d = select_overload(conv, [md([INTEGER, TEXT])], [4.0, "x"])
    assert d.status == "selected"
    assert d.args == (4, "x") and type(d.args[0]) is int


def test_arity_filters_candidates(world):
    reg, conv = world
    two = md([FLOAT, FLOAT])
    d = select_overload(conv, [md([FLOAT]), two], [1.0, 2.0])
    assert d.method is two
    assert select_overload(conv, [two], [1.0]).status == "no_match"


def test_overload_agreement_with_referee():
    agree, total, example = run_trials(10_000)
    assert (agree, total) == (10_000, 10_000), example


def test_overload_agreement_extended_tags():
    agree, total, example = run_trials(2_000, seed=7, extended=True)
    assert (agree, total) == (2_000, 2_000), example


# ------------------------------------------- host-side overload selection

def test_host_overload_agreement_with_referee():
    agree, total, example = run_host_trials(3_000)
    assert (agree, total) == (3_000, 3_000), example


def test_host_sites_agree_with_referee():
    agree, total, example, widest = run_host_site_trials(3_000)
    assert (agree, total) == (3_000, 3_000), example
    assert widest > SHAPES_PER_SITE


@pytest.mark.parametrize("validate", [False, True])
def test_lone_host_entries_agree_with_referee(validate):
    agree, total, example, lone, built = run_lone_entry_trials(
        3_000, validate_invokes=validate)
    assert (agree, total) == (3_000, 3_000), example
    assert lone == built > 30  # every entry the trials built is lone


def test_host_selection_converts_to_the_chosen_tags(world):
    reg, conv = world
    f_int, f_float = md([INTEGER]), md([FLOAT])
    m, args = resolve_overload([f_int], [4.0], reg.score_host, "ora")
    assert args == [4] and type(args[0]) is int
    m, args = resolve_overload([f_int, f_float], [4], reg.score_host, "ora")
    assert m is f_float and type(args[0]) is float
    for bad in ([f_int], [4.5]), ([f_float], [True]):
        with pytest.raises(NoMatch):
            resolve_overload(*bad, reg.score_host, "ora")
    # x/0 gives a script these numbers, so host code may pass them too
    for special in (math.inf, -math.inf, math.nan):
        m, args = resolve_overload(
            [f_int, f_float], [special], reg.score_host, "ora")
        assert m is f_float and type(args[0]) is float
        assert args[0] == special or math.isnan(special) == math.isnan(args[0])
        assert select_overload(
            conv, [f_int, f_float], [special]).method is f_float


def test_host_wrappers_score_by_conformance(world):
    """A wrapper counts 1 where conforms() accepts it and is incompatible
    elsewhere; the plain table it wraps would fit any wrappable slot."""
    reg, conv = world
    ear = conv.auto_wrap(Table(), "ora.Ear")
    derived = conv.auto_wrap(Table(), "ora.Derived")
    f_ear, f_base = md([InterfaceTag("ora.Ear")]), md([ClassTag("ora.Base")])
    f_derived = md([ClassTag("ora.Derived")])
    f_leaf = md([ClassTag("ora.Leaf")])
    assert host_decide(reg, [f_ear, f_base], [ear]) == ("selected", f_ear)
    assert host_decide(reg, [f_ear, f_leaf], [derived]) == ("no_match", None)
    assert host_decide(reg, [f_ear, f_base], [derived]) == ("selected", f_base)
    # a wrapper is never exact: its own class and a base tie
    assert host_decide(reg, [f_derived, f_base], [derived])[0] == "ambiguous"
    # the script side sees the table, which fits both slots
    assert select_overload(conv, [f_ear, f_base],
                           [ear.script_object]).status == "ambiguous"
