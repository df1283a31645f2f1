import copy
import pickle
import random
import re

import pytest

from ltlbd.formula import EMPTY_CLAUSE, Clause, Lit, Mod, SnfFormula
from ltlbd.interp import (AssignmentSet, FiniteWindowInterpretation,
                          first_violation, from_assignment_set, holds_literal,
                          models)


def interp(cols, lo=0, start=0):
    """Build an interpretation from {var: (left, [window...], right)}."""
    names = sorted(cols)
    width = len(next(iter(cols.values()))[1])
    left = {v: bool(cols[v][0]) for v in names}
    window = tuple({v: bool(cols[v][1][i]) for v in names}
                   for i in range(width))
    right = {v: bool(cols[v][2]) for v in names}
    return FiniteWindowInterpretation(left, window, lo, right, start)


def reference_holds(m, world, lit):
    """Evaluate on a very wide materialised window; independent of the
    closed-form evaluation under test."""
    span = range(m.lo - 40, m.hi + 41)
    col = {z: m.row(z)[lit.var] for z in span}
    if lit.mod is Mod.NONE:
        value = col[world]
    elif lit.mod is Mod.STAR:
        value = all(col.values())
    elif lit.mod is Mod.FUT:
        value = all(col[z] for z in span if z > world)
    else:
        value = all(col[z] for z in span if z < world)
    return value if lit.positive else not value


@pytest.mark.parametrize("left,window,lo,start,right,message", [
    ({"p": False}, (), 0, 0, {"p": True},
     "window must contain at least one world"),
    ({"p": False}, ({"p": True},), 0, 1, {"p": True},
     "start world must lie inside the window"),
    ({"p": False}, ({"p": True}, {"q": True}), 0, 0, {"p": True},
     "all worlds must assign the same variables"),
    ({"p": False}, ({"p": True},), 0, 0, {"q": True},
     "all worlds must assign the same variables"),
    ({"p": False}, ({"p": 2},), 0, 0, {"p": True},
     "cell 'p' must be 0 or 1, got 2"),
    ({"p": False}, ({"p": True},), 0, 0, {"p": 1.0},
     "cell 'p' must be 0 or 1, got 1.0"),
    # a model table would write this name as two names on its vars: line
    ({"a b": True}, ({"a b": False},), 0, 0, {"a b": True},
     "invalid variable name: 'a b'"),
], ids=["empty-window", "start-outside", "window-rows-differ",
        "right-row-differs", "int-cell", "float-cell", "invalid-name"])
def test_malformed_interpretation_is_refused(left, window, lo, start, right,
                                             message):
    with pytest.raises(ValueError, match=message):
        FiniteWindowInterpretation(left, window, lo, right, start)


def test_int_cells_are_stored_as_bools():
    m = FiniteWindowInterpretation({"x": 1}, ({"x": 0}, {"x": True}), 0,
                                   {"x": 1})
    assert [r["x"] for r in (m.left, *m.window, m.right)] == [
        True, False, True, True]
    assert all(type(r["x"]) is bool for r in (m.left, *m.window, m.right))
    phi = SnfFormula(frozenset({Mod.FUT}), (), (Clause([Lit("x", Mod.FUT)]),))
    assert holds_literal(m, 0, Lit("x", Mod.FUT))
    assert not models(m, phi)  # [F]x fails at world -1


def test_unknown_variable_is_refused():
    m = interp({"p": (1, [1], 1)})
    with pytest.raises(ValueError, match="unknown variable 'q'"):
        holds_literal(m, 0, Lit("q"))
    phi = SnfFormula(frozenset({Mod.STAR}), (), (Clause([Lit("p"), Lit("q")]),))
    with pytest.raises(ValueError,
                       match=re.escape("interpretation lacks variables: ['q']")):
        models(m, phi)


@pytest.mark.parametrize("members,initial,message", [
    ((), {}, "assignment set must be nonempty"),
    (({"p": True},), {"p": False},
     "designated assignment must belong to the set"),
], ids=["empty", "designated-outside"])
def test_malformed_assignment_set_is_refused(members, initial, message):
    with pytest.raises(ValueError, match=message):
        AssignmentSet(members, initial)


def test_plain_always_future_past_basics():
    m = interp({"p": (1, [1, 0, 1], 1)})
    assert holds_literal(m, 0, Lit("p"))
    assert not holds_literal(m, 1, Lit("p"))
    assert not holds_literal(m, 0, Lit("p", Mod.STAR))
    # future from world 1 skips the zero at world 1 itself
    assert holds_literal(m, 1, Lit("p", Mod.FUT))
    assert not holds_literal(m, 0, Lit("p", Mod.FUT))
    assert not holds_literal(m, 2, Lit("p", Mod.PAST))
    assert holds_literal(m, 1, Lit("p", Mod.PAST))


def test_constant_interpretation_always_holds():
    m = interp({"p": (1, [1], 1)})
    for z in range(-2, 3):
        for mod in (Mod.NONE, Mod.PAST, Mod.FUT, Mod.STAR):
            assert holds_literal(m, z, Lit("p", mod))


def test_world_outside_sentinel_range_rejected():
    m = interp({"p": (1, [1], 1)})
    with pytest.raises(ValueError):
        holds_literal(m, 3, Lit("p"))
    with pytest.raises(ValueError):
        holds_literal(m, -3, Lit("p"))


def test_holds_matches_wide_window_reference():
    rng = random.Random(5)
    for _ in range(300):
        nv = rng.randint(1, 3)
        width = rng.randint(1, 4)
        cols = {f"v{i}": (rng.random() < .5,
                          [rng.random() < .5 for _ in range(width)],
                          rng.random() < .5)
                for i in range(nv)}
        lo = rng.randint(-2, 1)
        m = interp(cols, lo=lo, start=lo)
        for z in range(m.lo - 2, m.hi + 3):
            for v in cols:
                for mod in (Mod.NONE, Mod.PAST, Mod.FUT, Mod.STAR):
                    for pos in (True, False):
                        l = Lit(v, mod, pos)
                        assert holds_literal(m, z, l) == reference_holds(m, z, l)


def test_models_checks_initial_facts_at_start():
    phi = SnfFormula(frozenset({Mod.STAR}), ("x",), (Clause([Lit("x")]),))
    good = interp({"x": (1, [1], 1)})
    assert models(good, phi)
    bad = interp({"x": (1, [0, 1], 1)})  # x false at world 0
    assert not models(bad, phi)


def test_models_checks_clauses_at_every_world():
    phi = SnfFormula(frozenset({Mod.STAR}), (), (Clause([Lit("x")]),))
    m = interp({"x": (1, [1, 1], 0)})  # fails only in the right frozen region
    assert not models(m, phi)


def test_models_shift_invariance():
    rng = random.Random(6)
    for _ in range(100):
        width = rng.randint(1, 3)
        cols = {v: (rng.random() < .5,
                    [rng.random() < .5 for _ in range(width)],
                    rng.random() < .5) for v in ("a", "b")}
        m = interp(cols)
        clauses = [Clause([Lit(rng.choice(("a", "b")),
                               rng.choice(list(Mod)), rng.random() < .5)
                           for _ in range(rng.randint(1, 3))])
                   for _ in range(3)]
        phi = SnfFormula(frozenset({Mod.PAST, Mod.FUT, Mod.STAR}),
                         (), tuple(clauses))
        shift = rng.randint(-5, 5)
        shifted = FiniteWindowInterpretation(
            m.left, m.window, m.lo + shift, m.right, m.start + shift)
        assert models(m, phi) == models(shifted, phi)


def reference_models(m, phi):
    """``models`` through ``reference_holds``: the initial facts at the
    start world, and some literal of every clause at each checked world."""
    return (all(m.row(m.start)[v] for v in phi.initial)
            and all(any(reference_holds(m, z, lit) for lit in clause)
                    for clause in phi.clauses
                    for z in range(m.lo - 2, m.hi + 3)))


def reference_first_violation(m, phi):
    """``first_violation`` through ``reference_holds``."""
    for v in phi.initial:
        if not m.row(m.start)[v]:
            return v, m.start
    for clause in phi.clauses:
        for z in range(m.lo - 2, m.hi + 3):
            if not any(reference_holds(m, z, lit) for lit in clause):
                return clause, z
    return None


def test_models_matches_wide_window_reference():
    rng = random.Random(8)
    mods = list(Mod)
    seen = set()
    for _ in range(2000):
        names = [f"v{i}" for i in range(rng.randint(1, 3))]
        width = rng.randint(1, 5)
        cols = {v: (rng.random() < .5,
                    [rng.random() < .5 for _ in range(width)],
                    rng.random() < .5) for v in names}
        lo = rng.randint(-3, 3)
        m = interp(cols, lo=lo, start=rng.randint(lo, lo + width - 1))
        # no clauses, the empty clause, and clauses of one to three literals
        clauses = tuple(
            Clause([Lit(rng.choice(names), rng.choice(mods), rng.random() < .5)
                    for _ in range(rng.choice((0, 1, 1, 2, 2, 2, 3)))])
            for _ in range(rng.randint(0, 3)))
        initial = tuple(v for v in names if rng.random() < .25)
        phi = SnfFormula(frozenset({Mod.PAST, Mod.FUT, Mod.STAR}), initial,
                         clauses)
        expected = reference_models(m, phi)
        assert models(m, phi) == expected
        assert first_violation(m, phi) == reference_first_violation(m, phi)
        seen.add((expected, bool(clauses), EMPTY_CLAUSE in clauses))
    # both verdicts, formulas without clauses and with the empty clause
    assert {(True, False, False), (True, True, False), (False, True, True),
            (False, True, False)} <= seen


def test_future_fails_at_the_top_sentinel_when_right_is_false():
    m = interp({"x": (1, [1, 1], 0)})
    fut = Lit("x", Mod.FUT)
    # the checked worlds above the window are all false, so the last false
    # one is hi + 2 itself; only the right region beyond makes [F]x fail there
    assert not holds_literal(m, m.hi + 2, fut)
    assert holds_literal(m, m.hi + 2, fut.negated())
    assert [holds_literal(m, z, fut) for z in range(m.lo - 2, m.hi + 3)] == (
        [False] * (len(m.window) + 4))


def test_past_fails_at_the_bottom_sentinel_when_left_is_false():
    m = interp({"x": (0, [1, 1], 1)}, lo=-1, start=-1)
    past = Lit("x", Mod.PAST)
    assert not holds_literal(m, m.lo - 2, past)
    assert holds_literal(m, m.lo - 2, past.negated())
    assert [holds_literal(m, z, past) for z in range(m.lo - 2, m.hi + 3)] == (
        [False] * (len(m.window) + 4))


def test_models_fails_at_a_sentinel_world_only():
    ops = frozenset({Mod.PAST, Mod.FUT})
    # [P]x fails only at hi + 2, [F]x only at lo - 2
    top = interp({"x": (1, [1, 1], 0)})
    phi = SnfFormula(ops, (), (Clause([Lit("x", Mod.PAST)]),))
    assert [holds_literal(top, z, Lit("x", Mod.PAST))
            for z in range(top.lo - 2, top.hi + 3)] == [True] * 5 + [False]
    assert not models(top, phi)
    bottom = interp({"x": (0, [1, 1], 1)})
    phi = SnfFormula(ops, (), (Clause([Lit("x", Mod.FUT)]),))
    assert [holds_literal(bottom, z, Lit("x", Mod.FUT))
            for z in range(bottom.lo - 2, bottom.hi + 3)] == [False] + [True] * 5
    assert not models(bottom, phi)


def test_stabilization_under_window_extension():
    rng = random.Random(7)
    for _ in range(100):
        width = rng.randint(1, 3)
        cols = {v: (rng.random() < .5,
                    [rng.random() < .5 for _ in range(width)],
                    rng.random() < .5) for v in ("a", "b")}
        m = interp(cols)
        padded = FiniteWindowInterpretation(
            m.left, (m.left,) * 3 + m.window + (m.right,) * 3,
            m.lo - 3, m.right, m.start)
        for v in ("a", "b"):
            for mod in (Mod.NONE, Mod.PAST, Mod.FUT, Mod.STAR):
                l = Lit(v, mod)
                base = holds_literal(m, m.lo - 2, l)
                for k in (2, 3, 4, 5):
                    assert holds_literal(padded, m.lo - k, l) == base
                base = holds_literal(m, m.hi + 2, l)
                for k in (2, 3, 4, 5):
                    assert holds_literal(padded, m.hi + k, l) == base


def test_from_assignment_set_layout():
    a0 = {"x": True, "y": False}
    a1 = {"x": False, "y": False}
    a2 = {"x": False, "y": True}
    m = from_assignment_set(AssignmentSet((a2, a0, a1), a0))
    assert m.lo == 0 and m.start == 0
    assert m.window[0] == a0          # designated first
    assert m.window[1:] == (a1, a2)   # rest in bit order
    assert m.left == a0 and m.right == a2


def test_from_assignment_set_singleton_constant():
    a0 = {"x": True}
    m = from_assignment_set(AssignmentSet((a0,), a0))
    assert m.left == a0 and m.right == a0 and m.window == (a0,)
    phi = SnfFormula(frozenset({Mod.STAR}), (), (Clause([Lit("x", Mod.STAR)]),))
    assert models(m, phi)


def test_from_assignment_set_star_falsified_by_second_member():
    a0 = {"x": True}
    a1 = {"x": False}
    m = from_assignment_set(AssignmentSet((a0, a1), a0))
    phi = SnfFormula(frozenset({Mod.STAR}), (),
                     (Clause([Lit("x", Mod.STAR, False)]),))
    assert not holds_literal(m, 0, Lit("x", Mod.STAR))
    assert models(m, phi)


def test_first_violation_names_a_false_initial_fact():
    phi = SnfFormula(frozenset({Mod.STAR}), ("x", "y", "z"),
                     (Clause([Lit("w", Mod.STAR)]),))
    m = interp({"w": (0, [0, 0], 0), "x": (0, [1, 0], 0),
                "y": (1, [0, 0], 1), "z": (0, [1, 0], 0)}, lo=-1, start=-1)
    # the initial facts come before the clauses, and y is the first false
    assert first_violation(m, phi) == ("y", -1)
    assert not models(m, phi)


def test_first_violation_names_the_first_failing_clause_at_its_lowest_world():
    holds, fails_late, fails_early = (Clause([Lit("a"), Lit("b")]),
                                      Clause([Lit("b")]),
                                      Clause([Lit("a")]))
    phi = SnfFormula(frozenset({Mod.STAR}), (),
                     (holds, fails_late, fails_early))
    m = interp({"a": (1, [0, 1, 1], 1), "b": (1, [1, 0, 1], 1)}, lo=3,
               start=3)
    # b fails only at world 4, a only at world 3: formula order decides
    assert first_violation(m, phi) == (fails_late, 4)
    assert first_violation(m, SnfFormula(phi.operators, (),
                                         (holds, fails_early))) == (
        fails_early, 3)
    assert first_violation(m, SnfFormula(phi.operators, (), (holds,))) is None


@pytest.mark.parametrize("mod,cols,edge", [
    (Mod.FUT, (0, [1, 1], 1), "lo"), (Mod.PAST, (1, [1, 1], 0), "hi")],
    ids=["future-at-lo-2", "past-at-hi+2"])
def test_first_violation_at_an_edge_world(mod, cols, edge):
    # [F]x fails only at lo - 2, [P]x only at hi + 2
    m = interp({"x": cols}, lo=5, start=5)
    clause = Clause([Lit("x", mod)])
    phi = SnfFormula(frozenset({mod}), (), (clause,))
    world = m.lo - 2 if edge == "lo" else m.hi + 2
    assert first_violation(m, phi) == (clause, world)
    assert first_violation(m, SnfFormula(phi.operators, (), (EMPTY_CLAUSE,))
                           ) == (EMPTY_CLAUSE, m.lo - 2)


def value_types():
    a0, a1 = {"x": True, "y": False}, {"x": False, "y": False}
    return [interp({"x": (1, [0, 1], 0), "y": (0, [1, 1], 1)}, lo=-2,
                   start=-1),
            AssignmentSet((a1, a0, a1), a0)]


@pytest.mark.parametrize("value", value_types(),
                         ids=["interpretation", "assignment-set"])
def test_value_types_pickle_and_deepcopy_round_trip(value):
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for got in copies + [copy.deepcopy(value), copy.copy(value)]:
        assert type(got) is type(value)
        assert got == value and repr(got) == repr(value)


@pytest.mark.parametrize("value", value_types(),
                         ids=["interpretation", "assignment-set"])
def test_value_types_refuse_assignment_and_are_unhashable(value):
    before = repr(value)
    for name in (*value.__slots__, "new"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before
    # they hold dicts, as the frozen dataclasses they replace did
    with pytest.raises(TypeError):
        hash(value)


def test_value_types_compare_by_fields():
    m, aset = value_types()
    assert m == FiniteWindowInterpretation(m.left, m.window, m.lo, m.right,
                                           m.start)
    assert m != FiniteWindowInterpretation(m.left, m.window, m.lo, m.right,
                                           m.start - 1)
    assert aset == AssignmentSet(aset.members, aset.initial)
    # members keep their order
    assert aset != AssignmentSet(aset.members[::-1], aset.initial)
    assert aset != AssignmentSet(aset.members, aset.members[0])
    assert m != aset
