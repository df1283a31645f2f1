import itertools
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import ltlbd

from ltlbd.detection import HORN, verify_backdoor
from ltlbd.evaluation import (ThetaSet, assignments_over,
                              build_horn_encoding, candidate_theta_sets,
                              encoding_size_bound, evaluate_horn_star,
                              global_assignment, propositionalize,
                              relabel_copy)
from ltlbd.formula import Clause, Lit, Mod, SnfFormula, remove_tautologies
from ltlbd.gen import planted_instance, random_formula
from ltlbd.interp import models
from ltlbd.oracle import star_sat_oracle
from ltlbd.propsat import PropCnf, copy_atom, global_atom, horn_sat, plain_atom


def formula(clauses, initial=()):
    return SnfFormula(frozenset({Mod.STAR}), tuple(initial), tuple(clauses))


class TestGlobalAssignment:
    def test_unanimous_true(self):
        g = global_assignment([{"x": True}], ["x"])
        assert g.get("x", Mod.STAR) is True

    def test_mixed_is_false(self):
        g = global_assignment([{"x": True}, {"x": False}], ["x"])
        assert g.get("x", Mod.STAR) is False

    def test_local_part_copied(self):
        g = global_assignment([{"x": True}, {"x": False}], ["x"],
                              local={"x": True})
        assert g.get("x", Mod.NONE) is True
        assert g.get("x", Mod.STAR) is False

    def test_backdoor_columns_of_the_triangle_reduction_model(self):
        # the worked example's three worlds assign (0,0), (1,0), (0,1)
        rows = [{"b1": False, "b2": False}, {"b1": True, "b2": False},
                {"b1": False, "b2": True}]
        g = global_assignment(rows, ["b1", "b2"])
        assert g.get("b1", Mod.STAR) is False
        assert g.get("b2", Mod.STAR) is False


class TestPropositionalize:
    def test_always_literal_becomes_global_atom(self):
        cnf = propositionalize([Clause([Lit("x", Mod.STAR, False), Lit("y")])])
        assert cnf.clauses == (((global_atom("x"), False),
                                (plain_atom("y"), True)),)

    def test_polarity_preserved(self):
        horn = propositionalize([Clause([Lit("x", positive=False),
                                         Lit("y", Mod.STAR)])])
        assert horn.is_horn

    def test_empty(self):
        assert propositionalize([]).clauses == ()

    def test_rejects_future_past(self):
        with pytest.raises(ValueError):
            propositionalize([Clause([Lit("x", Mod.FUT)])])


class TestRelabelCopy:
    def test_plain_atoms_become_copies(self):
        cnf = PropCnf([[(plain_atom("v"), True), (global_atom("v"), False)]])
        out = relabel_copy(cnf, ["v"], 2, "t")
        assert out.clauses == (((copy_atom("v", 2, "t"), True),
                                (global_atom("v"), False)),)

    def test_identity_outside_the_variable_set(self):
        cnf = PropCnf([[(plain_atom("v"), True)]])
        assert relabel_copy(cnf, ["w"], 1, "t") == cnf

    def test_distinct_labels_distinct_atoms(self):
        cnf = PropCnf([[(plain_atom("v"), True)]])
        a = relabel_copy(cnf, ["v"], 1, "s").clauses[0][0][0]
        b = relabel_copy(cnf, ["v"], 1, "t").clauses[0][0][0]
        assert a != b

    def test_copy_index_must_be_positive(self):
        with pytest.raises(ValueError):
            relabel_copy(PropCnf(), ["v"], 0, "t")


class TestCandidateOrder:
    def test_assignments_lexicographic(self):
        got = assignments_over(["p", "q"])
        assert got == [{"p": False, "q": False}, {"p": False, "q": True},
                       {"p": True, "q": False}, {"p": True, "q": True}]

    def test_sets_by_cardinality_then_designated_in_member_order(self):
        seen = list(candidate_theta_sets(["x"]))
        shapes = [(len(ts.members), ts.designated["x"]) for ts in seen]
        assert shapes == [(1, False), (1, True), (2, False), (2, True)]

    def test_empty_backdoor_single_candidate(self):
        seen = list(candidate_theta_sets([]))
        assert len(seen) == 1
        assert seen[0].members == ({},)

    def test_theta_set_validation(self):
        with pytest.raises(ValueError):
            ThetaSet((), {})
        with pytest.raises(ValueError):
            ThetaSet(({"x": True},), {"x": False})


class TestEncoding:
    def test_degenerate_backdoor_shape(self):
        # one clause, no backdoor: copies of the clause for every world slot,
        # one initial-fact unit, and the sharing constraints
        phi = formula([Clause([Lit("x", Mod.STAR, False),
                               Lit("x", positive=False)])], initial=["x"])
        ts = next(candidate_theta_sets(()))
        cnf = build_horn_encoding(phi, (), ts)
        assert cnf.is_horn
        r = 2  # one non-backdoor variable plus one
        clause_copies = [c for c in cnf.clauses if len(c) == 2
                         and c[0][0].kind == "global"]
        assert len(clause_copies) >= r
        assert ((copy_atom("x", 1, ""), True),) in cnf.clauses

    def test_hand_checked_satisfiable_instance(self):
        phi = formula([Clause([Lit("x", Mod.STAR, False),
                               Lit("x", positive=False)])], initial=["x"])
        result = evaluate_horn_star(phi, ())
        assert result.satisfiable
        rows = [m["x"] for m in result.assignment_set.members]
        assert True in rows and False in rows

    def test_initial_contradiction_unsat(self):
        phi = formula([Clause([Lit("x", positive=False)])], initial=["x"])
        assert not evaluate_horn_star(phi, ()).satisfiable

    def test_rejects_past_future_fragment(self):
        phi = SnfFormula(frozenset({Mod.FUT, Mod.PAST}), (),
                         (Clause([Lit("x", Mod.FUT)]),))
        with pytest.raises(ValueError):
            evaluate_horn_star(phi, ())

    def test_rejects_a_future_literal_the_operators_omit(self):
        # [F]b survives the reduct by b: the fragment error, not a lookup
        # failure (the CLI refuses such a file before evaluating it)
        phi = formula([Clause([Lit("b", Mod.FUT), Lit("x", positive=False)]),
                       Clause([Lit("x"), Lit("b")])])
        with pytest.raises(ValueError,
                           match=r"literal \[F\]b outside the always-only"):
            evaluate_horn_star(phi, ("b",))

    def test_rejects_non_backdoor(self):
        phi = formula([Clause([Lit("x"), Lit("y")])])
        with pytest.raises(ValueError):
            evaluate_horn_star(phi, ())

    def test_size_bound_holds_on_every_candidate(self):
        rng = random.Random(8)
        for seed in range(30):
            n_vars = rng.randint(1, 5)
            phi, backdoor = planted_instance(seed, n_vars,
                                             rng.randint(1, 6), HORN,
                                             rng.randint(0, min(2, n_vars)),
                                             {Mod.STAR})
            core = remove_tautologies(phi)
            bound = encoding_size_bound(core, backdoor)
            sizes = []
            evaluate_horn_star(
                phi, backdoor,
                on_candidate=lambda ts, cnf: sizes.append(len(cnf.clauses)))
            assert sizes and max(sizes) <= bound


class TestAgainstOracle:
    def test_verdicts_match_on_random_formulas_with_all_valid_backdoors(self):
        rng = random.Random(9)
        for _ in range(120):
            phi = random_formula(rng, rng.randint(1, 4), rng.randint(1, 4),
                                 3, {Mod.STAR})
            expected = star_sat_oracle(phi) is not None
            core = remove_tautologies(phi)
            names = sorted(phi.variables)
            for size in range(0, min(2, len(names)) + 1):
                for chosen in itertools.combinations(names, size):
                    if not verify_backdoor(core, chosen, HORN):
                        continue
                    result = evaluate_horn_star(phi, chosen)
                    assert result.satisfiable == expected
                    if result.satisfiable:
                        assert models(result.interpretation, phi)

    def test_empty_clause_is_unsat_through_every_backdoor(self):
        # the empty clause survives every reduct, so each block is FALSE
        phi = formula([Clause([]), Clause([Lit("b"), Lit("c")])])
        assert verify_backdoor(phi, ("b",), HORN)
        assert star_sat_oracle(phi) is None
        assert not evaluate_horn_star(phi, ("b",)).satisfiable

    def test_certificate_block_sizes_bounded(self):
        rng = random.Random(10)
        for seed in range(40):
            phi, backdoor = planted_instance(seed, rng.randint(2, 6),
                                             rng.randint(1, 6), HORN,
                                             rng.randint(0, 2), {Mod.STAR})
            result = evaluate_horn_star(phi, backdoor)
            if not result.satisfiable:
                continue
            rest = set(phi.variables) - set(backdoor)
            for theta in result.theta_set.members:
                agreeing = [m for m in result.assignment_set.members
                            if all(m[v] == theta[v] for v in theta)]
                assert len(agreeing) <= len(rest) + 1


@st.composite
def always_only_formulas(draw):
    """1-5 variables, 1-6 clauses of plain and always-literals, and a subset
    of the variables as initial facts."""
    names = [f"x{i + 1}" for i in range(draw(st.integers(1, 5)))]
    lit = st.builds(Lit, st.sampled_from(names),
                    st.sampled_from([Mod.NONE, Mod.STAR]), st.booleans())
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=4).map(Clause),
                            min_size=1, max_size=6))
    initial = draw(st.lists(st.sampled_from(names), unique=True))
    return SnfFormula(frozenset({Mod.STAR}), tuple(initial), tuple(clauses))


def _rows_of(horn_model, phi, backdoor, ts):
    """The distinct member rows (copy i of member p, i = 1..r+1, in that
    order) and the designated row, read off a minimal model of the full
    encoding."""
    rest = sorted(set(phi.variables) - set(backdoor))
    rows, designated = [], None
    for theta in ts.members:
        label = "".join("1" if theta[v] else "0" for v in sorted(theta))
        for i in range(1, len(rest) + 2):
            row = dict(theta)
            row.update((v, horn_model[copy_atom(v, i, label)]) for v in rest)
            if row not in rows:
                rows.append(row)
            if theta == ts.designated and i == 1:
                designated = row
    return rows, designated


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(always_only_formulas())
def test_every_candidate_matches_a_from_scratch_solve(phi):
    # the factored, incremental two-copy evaluation must answer exactly what
    # solving each dumped (r+1)-copy encoding on its own answers, in
    # candidate order, down to the certificate's rows; the dumps are built
    # from the encoding's definition and share no code with the solve
    expected = star_sat_oracle(phi) is not None
    core = remove_tautologies(phi)
    names = sorted(phi.variables)
    for size in range(min(2, len(names)) + 1):
        for chosen in itertools.combinations(names, size):
            if not verify_backdoor(core, chosen, HORN):
                continue
            tried = []
            result = evaluate_horn_star(
                phi, chosen,
                on_candidate=lambda ts, cnf: tried.append((ts, cnf)))
            assert result.satisfiable == expected
            # a fresh build per candidate shares no cached block
            assert all(cnf == build_horn_encoding(core, chosen, ts)
                       for ts, cnf in tried)
            solved = [horn_sat(cnf) for _, cnf in tried]
            if result.satisfiable:
                assert models(result.interpretation, phi)
                assert all(m is None for m in solved[:-1])
                # same atoms, values and order as the (r+1)-copy encoding
                assert (list(solved[-1].items())
                        == list(result.horn_model.items()))
                members, designated = _rows_of(solved[-1], core, chosen,
                                               result.theta_set)
                assert list(result.assignment_set.members) == members
                assert result.assignment_set.initial == designated
            else:
                assert all(m is None for m in solved)
                assert len(solved) == len(list(candidate_theta_sets(chosen)))


def test_failed_designated_variant_leaves_the_shared_closure_intact():
    # init x, ~x | b, ~[*]b with backdoor {b}: b false at the start fails
    # through the initial fact, both singletons fail, and the pair succeeds
    # only with b true at the start, right after its failed variant
    phi = formula([Clause([Lit("x", positive=False), Lit("b")]),
                   Clause([Lit("b", Mod.STAR, False)])], initial=["x"])
    tried = []
    result = evaluate_horn_star(
        phi, ("b",), on_candidate=lambda ts, cnf: tried.append(cnf))
    assert result.satisfiable
    assert len(tried) == 4 and len(result.theta_set.members) == 2
    assert result.theta_set.designated == {"b": True}
    assert horn_sat(tried[-1]) == result.horn_model
    assert models(result.interpretation, phi)


def test_reference_encoding_shares_no_code_with_the_solve(monkeypatch):
    # build_horn_encoding builds the (r+1)-copy encoding from its definition,
    # so it is unchanged with the integer solve's encoder replaced
    class Refused:
        def __init__(self, *args):
            raise AssertionError("the reference encoding used _Encoding")

    monkeypatch.setattr(ltlbd.evaluation, "_Encoding", Refused)
    # init x, ~x | b, ~[*]b | [*]x with backdoor {b}, members b=0 and b=1:
    # block 0 keeps ~x, block 1 is empty, and b=1 carries the fact x
    phi = formula([Clause([Lit("x", positive=False), Lit("b")]),
                   Clause([Lit("b", Mod.STAR, False), Lit("x", Mod.STAR)])],
                  initial=["x"])
    ts = ThetaSet(({"b": False}, {"b": True}), {"b": True})
    g = global_atom("x")
    copies = [copy_atom("x", i, label) for label in "01" for i in (1, 2)]
    assert build_horn_encoding(phi, ("b",), ts).clauses == (
        ((copies[0], False),), ((copies[1], False),),
        ((copies[2], True),),
        *(((g, False), (c, True)) for c in copies),
        ((g, True), *((c, False) for c in copies)))
    with pytest.raises(AssertionError, match="used _Encoding"):
        evaluate_horn_star(phi, ("b",))


def _unsat_gadget(seed, n_vars, n_clauses, k):
    """A planted always-only instance plus init r1, r1 -> r2, r2 -> b and
    r2 -> ~b, with b the first backdoor variable: UNSAT by construction."""
    phi, backdoor = planted_instance(seed, n_vars, n_clauses, HORN, k,
                                     {Mod.STAR})
    b = backdoor[0]
    gadget = (Clause([Lit("r1", positive=False), Lit("r2")]),
              Clause([Lit("r2", positive=False), Lit(b)]),
              Clause([Lit("r2", positive=False), Lit(b, positive=False)]))
    return SnfFormula(phi.operators, phi.initial + ("r1",),
                      phi.clauses + gadget), backdoor


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_k3_unsat_gadget_tries_every_candidate(seed):
    # no candidate can succeed, so all 2^3 * 2^(2^3 - 1) are tried
    phi, backdoor = _unsat_gadget(seed, 8, 14, 3)
    seen = []
    result = evaluate_horn_star(phi, backdoor,
                                on_candidate=lambda ts, cnf: seen.append(ts))
    assert not result.satisfiable
    assert star_sat_oracle(phi) is None
    assert len(seen) == 1024


def test_k2_unsat_gadget_at_detection_scale():
    # the k=2 gadget at n = 1000: two copies per block keep each member
    # set's encoding linear in n, where r+1 copies made it quadratic
    phi, backdoor = _unsat_gadget(0, 1000, 2000, 2)
    t0 = time.perf_counter()
    result = evaluate_horn_star(phi, backdoor)
    elapsed = time.perf_counter() - t0
    assert not result.satisfiable
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_library_checks_survive_optimize():
    # the self-checks must raise even when python -O strips assert statements
    src = os.path.dirname(os.path.dirname(ltlbd.__file__))
    probe = """
import ltlbd.evaluation, ltlbd.gen
from ltlbd.formula import Clause, Lit, Mod, SnfFormula
print(__debug__)
ltlbd.gen.verify_backdoor = lambda *args: False
try:
    ltlbd.gen.planted_instance(0, 4, 4, "horn", 1, {Mod.STAR})
except AssertionError:
    print("planted raised")
ltlbd.evaluation.verify_backdoor = lambda *args: True
phi = SnfFormula(frozenset({Mod.STAR}), (), (Clause([Lit("x"), Lit("y")]),))
ts = next(ltlbd.evaluation.candidate_theta_sets(()))
try:
    ltlbd.evaluation.build_horn_encoding(phi, (), ts)
except AssertionError:
    print("encoding raised")
try:
    ltlbd.evaluation.evaluate_horn_star(phi, ())
except AssertionError:
    print("evaluation raised")
"""
    done = subprocess.run([sys.executable, "-O", "-c", probe],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split("\n")[:4] == ["False", "planted raised",
                                           "encoding raised",
                                           "evaluation raised"]
