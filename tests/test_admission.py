"""Input admission: every entry point refuses, through one check, a formula
outside its operator fragment, and answers on every other formula."""

import pytest
from hypothesis import given, note, settings, strategies as st

from ltlbd.detection import detect_horn_backdoor, detect_krom_backdoor
from ltlbd.evaluation import (build_horn_encoding, candidate_theta_sets,
                              evaluate_horn_star)
from ltlbd.fileio import parse_snf
from ltlbd.formula import (TEMPORAL_MODS, Clause, Lit, Mod, SnfFormula,
                           check_operators, validate_normal_form)
from ltlbd.oracle import star_sat_oracle, window_sat_oracle

UNDECLARED = "a clause uses an operator the formula does not declare"
OUTSIDE = "the formula declares an operator outside the fragment"

# [F]x is undeclared, and the reduct by b drops it
UNDECLARED_FILE = ("operators: *\ninit: b\n"
                   "clause: [F]x | b\nclause: ~x | b\n")


def _never_called(ts, cnf):
    raise AssertionError("on_candidate called on a refused formula")


def _first_candidate(backdoor):
    return next(candidate_theta_sets(backdoor))


#: name -> (call on a formula, fragment it handles)
ENTRY_POINTS = {
    "detect_horn_backdoor": (lambda phi: detect_horn_backdoor(phi, 2),
                             TEMPORAL_MODS),
    "detect_krom_backdoor": (lambda phi: detect_krom_backdoor(phi, 2),
                             TEMPORAL_MODS),
    "window_sat_oracle": (lambda phi: window_sat_oracle(phi, 1),
                          TEMPORAL_MODS),
    "star_sat_oracle": (star_sat_oracle, (Mod.STAR,)),
    "evaluate_horn_star": (
        lambda phi: evaluate_horn_star(phi, phi.variables), (Mod.STAR,)),
    "evaluate_horn_star/on_candidate": (
        lambda phi: evaluate_horn_star(phi, phi.variables,
                                       on_candidate=lambda ts, cnf: None),
        (Mod.STAR,)),
    "build_horn_encoding": (
        lambda phi: build_horn_encoding(
            phi, phi.variables, _first_candidate(phi.variables)),
        (Mod.STAR,)),
}


class TestUndeclaredFile:
    @pytest.fixture
    def phi(self):
        return parse_snf(UNDECLARED_FILE)

    @pytest.mark.parametrize("call", [
        lambda phi: detect_horn_backdoor(phi, 1),
        lambda phi: detect_krom_backdoor(phi, 1),
        lambda phi: window_sat_oracle(phi, 1),
        star_sat_oracle,
        lambda phi: evaluate_horn_star(phi, ["b"]),
        lambda phi: evaluate_horn_star(phi, ["b"],
                                       on_candidate=_never_called),
        lambda phi: build_horn_encoding(phi, ["b"], _first_candidate(["b"])),
    ], ids=["detect-horn", "detect-krom", "window", "star", "evaluate",
            "evaluate-hook", "build-encoding"])
    def test_every_entry_point_refuses_it(self, phi, call):
        with pytest.raises(ValueError, match=UNDECLARED):
            call(phi)


class TestCheckOperators:
    def test_names_the_declared_operators_outside_the_fragment(self):
        phi = SnfFormula(frozenset({Mod.PAST, Mod.FUT, Mod.STAR}), (),
                         (Clause([Lit("x")]),))
        with pytest.raises(ValueError, match=OUTSIDE + r": \[P\] \[F\]$"):
            check_operators(phi, (Mod.STAR,))
        check_operators(phi)

    def test_an_undeclared_operator_is_reported_first(self):
        phi = SnfFormula(frozenset({Mod.FUT}), (),
                         (Clause([Lit("x", Mod.PAST)]),))
        with pytest.raises(ValueError, match=UNDECLARED):
            check_operators(phi, (Mod.STAR,))


@st.composite
def any_operator_formulas(draw):
    """1-4 variables and 1-4 clauses under a random declared operator
    subset.  In half the draws the literals carry any modality, in the other
    half only declared ones, so both refusals and answers are common."""
    names = [f"x{i + 1}" for i in range(draw(st.integers(1, 4)))]
    declared = draw(st.sets(st.sampled_from(TEMPORAL_MODS)))
    mods = TEMPORAL_MODS if draw(st.booleans()) else sorted(declared)
    lit = st.builds(Lit, st.sampled_from(names),
                    st.sampled_from([Mod.NONE, *mods]), st.booleans())
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=3).map(Clause),
                            min_size=1, max_size=4))
    initial = draw(st.lists(st.sampled_from(names), unique=True))
    return SnfFormula(frozenset(declared), tuple(initial), tuple(clauses))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(any_operator_formulas())
def test_entry_points_refuse_exactly_outside_their_fragment(phi):
    undeclared = any(v.kind == "undeclared-operator"
                     for v in validate_normal_form(phi))
    for name, (call, fragment) in ENTRY_POINTS.items():
        note(name)
        if undeclared:
            expected = UNDECLARED
        elif not phi.operators <= set(fragment):
            expected = OUTSIDE
        else:
            call(phi)  # a verdict, not a refusal
            continue
        with pytest.raises(ValueError, match=expected):
            call(phi)
