import itertools
import random

import pytest

from ltlbd.formula import Clause, Lit, Mod, SnfFormula, remove_tautologies
from ltlbd.gen import random_formula
from ltlbd.interp import models
from ltlbd.oracle import (SCAN_VAR_LIMIT, _star_by_encoding, _star_by_scan,
                          star_sat_oracle, window_sat_oracle)


def formula(clauses, initial=(), ops={Mod.STAR}):
    return SnfFormula(frozenset(ops), tuple(initial), tuple(clauses))


def assignment_set_oracle(phi):
    """Independent satisfiability check: enumerate every candidate set of
    world assignments up to the bounded-witness size and test the
    characterisation directly (initial facts on the designated member, every
    member satisfying every clause with always-literals read from the
    unanimity of the set)."""
    names = sorted(phi.variables)
    rows = [dict(zip(names, bits))
            for bits in itertools.product((False, True), repeat=len(names))]
    limit = len(names) + 1
    for size in range(1, limit + 1):
        for combo in itertools.combinations(range(len(rows)), size):
            chosen = [rows[i] for i in combo]
            unanimity = {v: all(r[v] for r in chosen) for v in names}
            def clause_ok(row):
                for c in phi.clauses:
                    sat = False
                    for l in c:
                        value = unanimity[l.var] if l.mod is Mod.STAR else row[l.var]
                        if value == l.positive:
                            sat = True
                            break
                    if not sat:
                        return False
                return True
            if not all(clause_ok(r) for r in chosen):
                continue
            if any(all(r[v] for v in phi.initial) for r in chosen):
                return True
    return False


class TestStarOracle:
    def test_negated_always_with_initial_fact(self):
        phi = formula([Clause([Lit("x", Mod.STAR, False)])], initial=["x"])
        m = star_sat_oracle(phi)
        assert m is not None
        assert m.row(m.start)["x"] is True
        assert not all(r["x"] for r in m.window)

    def test_initial_contradiction(self):
        phi = formula([Clause([Lit("x", positive=False)])], initial=["x"])
        assert star_sat_oracle(phi) is None

    def test_wrong_fragment_rejected(self):
        phi = formula([Clause([Lit("x", Mod.FUT)])], ops={Mod.FUT})
        with pytest.raises(ValueError):
            star_sat_oracle(phi)

    def test_matches_assignment_set_enumeration(self):
        rng = random.Random(20)
        for _ in range(150):
            phi = random_formula(rng, rng.randint(1, 3), rng.randint(1, 4),
                                 3, {Mod.STAR})
            expected = assignment_set_oracle(phi)
            assert (star_sat_oracle(phi) is not None) == expected

    def test_scan_and_encoding_strategies_agree(self):
        # every size the scan strategy serves, up to SCAN_VAR_LIMIT
        rng = random.Random(21)
        for n in range(1, SCAN_VAR_LIMIT + 1):
            for _ in range(10):
                phi = random_formula(rng, n, rng.randint(1, 3 * n), 3,
                                     {Mod.STAR})
                a = _star_by_scan(phi)
                b = _star_by_encoding(phi)
                assert (a is None) == (b is None)
                if a is not None:
                    assert models(a, phi) and models(b, phi)

    def test_verdict_stable_under_tautology_removal(self):
        rng = random.Random(22)
        for _ in range(100):
            phi = random_formula(rng, rng.randint(1, 4), rng.randint(1, 5),
                                 4, {Mod.STAR}, seed_tautologies=True)
            stripped = remove_tautologies(phi)
            assert ((star_sat_oracle(phi) is None)
                    == (star_sat_oracle(stripped) is None))

    def test_variable_budget(self):
        clauses = [Clause([Lit(f"w{i:02d}")]) for i in range(65)]
        with pytest.raises(ValueError):
            star_sat_oracle(formula(clauses))


class TestWindowOracle:
    def test_contradictory_initial_fact_never_has_a_model(self):
        phi = formula([Clause([Lit("s", positive=False)])], initial=["s"],
                      ops={Mod.FUT, Mod.PAST})
        for width in (0, 1, 3):
            assert window_sat_oracle(phi, width) is None

    def test_future_literal_needs_room(self):
        # s now, p only strictly later, and p must stay off at the start
        phi = formula([Clause([Lit("s", positive=False), Lit("p", Mod.FUT)]),
                       Clause([Lit("s", positive=False),
                               Lit("p", positive=False)])],
                      initial=["s"], ops={Mod.FUT})
        m = window_sat_oracle(phi, 1)
        assert m is not None
        assert m.row(0)["p"] is False and m.row(1)["p"] is True

    def test_monotone_in_width(self):
        rng = random.Random(23)
        for _ in range(60):
            phi = random_formula(rng, rng.randint(1, 3), rng.randint(1, 4),
                                 3, {Mod.FUT, Mod.PAST})
            first = window_sat_oracle(phi, 1)
            if first is not None:
                for width in (2, 3):
                    assert window_sat_oracle(phi, width) is not None

    def test_agrees_with_star_oracle_on_the_always_fragment(self):
        rng = random.Random(24)
        for _ in range(80):
            phi = random_formula(rng, rng.randint(1, 3), rng.randint(1, 4),
                                 3, {Mod.STAR})
            s = star_sat_oracle(phi)
            w = window_sat_oracle(phi, len(phi.variables) + 1)
            assert (s is None) == (w is None)

    def test_budget(self):
        clauses = [Clause([Lit(f"w{i:03d}")]) for i in range(200)]
        phi = formula(clauses, ops={Mod.FUT})
        with pytest.raises(ValueError):
            window_sat_oracle(phi, 50)

    def test_negative_width_rejected(self):
        phi = formula([Clause([Lit("x")])], ops={Mod.FUT})
        with pytest.raises(ValueError):
            window_sat_oracle(phi, -1)
