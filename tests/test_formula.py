import itertools
import random
import re

import pytest

from ltlbd.formula import (Clause, ConsistentAssignment, EMPTY_CLAUSE, Lit,
                           Mod, SnfFormula, _derived, assignment_modalities,
                           clause_is_horn, clause_is_krom,
                           consistent_assignments, reduct,
                           remove_tautologies, validate_normal_form)
from ltlbd.gen import random_formula

#: every declared operator set
OPERATOR_SETS = [set(ops) for size in range(4)
                 for ops in itertools.combinations(
                     (Mod.PAST, Mod.FUT, Mod.STAR), size)]


def lit(name, mod=Mod.NONE, positive=True):
    return Lit(name, mod, positive)


class TestClauseClasses:
    def test_horn_one_positive(self):
        c = Clause([lit("x", positive=False), lit("y", Mod.FUT)])
        assert clause_is_horn(c)

    def test_empty_clause_in_both_classes(self):
        assert clause_is_horn(EMPTY_CLAUSE)
        assert clause_is_krom(EMPTY_CLAUSE)

    def test_two_positives_over_same_variable_not_horn(self):
        c = Clause([lit("x"), lit("x", Mod.STAR)])
        assert not clause_is_horn(c)

    def test_krom_binary(self):
        assert clause_is_krom(Clause([lit("x", positive=False), lit("y")]))

    def test_krom_ternary_fails(self):
        c = Clause([lit("x"), lit("y"), lit("z", positive=False)])
        assert not clause_is_krom(c)

    def test_duplicates_removed_on_construction(self):
        c = Clause([lit("x"), lit("x"), lit("y", Mod.STAR)])
        assert len(c) == 2

    def test_construction_sorts_and_dedups(self):
        c = Clause([lit("b"), lit("a", Mod.STAR, False), lit("b"),
                    lit("a", Mod.PAST), lit("a"), lit("c", Mod.FUT, False),
                    lit("a", Mod.STAR, False), lit("a", Mod.NONE, False)])
        assert c.literals == (
            lit("a", Mod.NONE, False), lit("a", Mod.STAR, False),
            lit("c", Mod.FUT, False), lit("a"), lit("a", Mod.PAST),
            lit("b"))
        # negatives first, then by name, then by modality order
        rng = random.Random(18)
        for _ in range(300):
            lits = [Lit(rng.choice("abc"), rng.choice(list(Mod)),
                        rng.random() < 0.5) for _ in range(rng.randint(0, 8))]
            want = sorted(set(lits), key=lambda l: (l.positive, l.var,
                                                    int(l.mod)))
            assert Clause(lits).literals == tuple(want)
            assert Clause(reversed(lits)).literals == tuple(want)

    def test_counting_matches_definition_on_random_clauses(self):
        rng = random.Random(0)
        names = ["a", "b", "c"]
        for _ in range(200):
            lits = [Lit(rng.choice(names), rng.choice(list(Mod)),
                        rng.random() < 0.5)
                    for _ in range(rng.randint(0, 5))]
            c = Clause(lits)
            distinct = set(lits)
            assert clause_is_horn(c) == (
                sum(1 for l in distinct if l.positive) <= 1)
            assert clause_is_krom(c) == (len(distinct) <= 2)


class TestConsistentAssignments:
    def test_counts_per_spec_shapes(self):
        assert len(list(consistent_assignments(["x"], {Mod.STAR}))) == 3
        assert len(list(consistent_assignments(
            ["x"], {Mod.PAST, Mod.FUT, Mod.STAR}))) == 9
        assert len(list(consistent_assignments([], {Mod.STAR}))) == 1

    @pytest.mark.parametrize("ops", [
        set(), {Mod.FUT}, {Mod.STAR}, {Mod.PAST, Mod.FUT},
        {Mod.PAST, Mod.FUT, Mod.STAR}])
    def test_counts_match_bruteforce_filter(self, ops):
        variables = ["p", "q"]
        mods = assignment_modalities(ops)
        keys = [(v, m) for v in variables for m in mods]
        brute = 0
        for bits in itertools.product((False, True), repeat=len(keys)):
            table = dict(zip(keys, bits))
            ok = True
            for v in variables:
                if table.get((v, Mod.STAR)) and not all(
                        table[(v, m)] for m in mods):
                    ok = False
            brute += ok
        assert len(list(consistent_assignments(variables, ops))) == brute

    def test_order_is_lexicographic_bit_order(self):
        out = list(consistent_assignments(["x"], {Mod.STAR}))
        rows = [(a.get("x", Mod.NONE), a.get("x", Mod.STAR)) for a in out]
        assert rows == [(False, False), (True, False), (True, True)]

    def test_inconsistent_construction_rejected(self):
        with pytest.raises(ValueError):
            ConsistentAssignment({("x", Mod.STAR): True,
                                  ("x", Mod.NONE): False})


def formula(clauses, ops={Mod.STAR}, initial=()):
    return SnfFormula(frozenset(ops), tuple(initial), tuple(clauses))


class TestReduct:
    def test_satisfied_clause_removed_entirely(self):
        phi = formula([Clause([lit("x"), lit("y")])])
        theta = ConsistentAssignment({("x", Mod.NONE): True,
                                      ("x", Mod.STAR): False})
        assert reduct(phi, theta).is_true

    def test_emptied_clause_yields_false_marker(self):
        phi = formula([Clause([lit("x")])])
        theta = ConsistentAssignment({("x", Mod.NONE): False,
                                      ("x", Mod.STAR): False})
        assert reduct(phi, theta).is_false

    def test_falsified_literal_dropped(self):
        phi = formula([Clause([lit("x", Mod.STAR, False), lit("y")])])
        theta = ConsistentAssignment({("x", Mod.NONE): True,
                                      ("x", Mod.STAR): True})
        assert reduct(phi, theta).clauses == (Clause([lit("y")]),)

    def test_initial_fact_discharge(self):
        phi = formula([Clause([lit("x"), lit("y")])], initial=["x"])
        true_x = ConsistentAssignment({("x", Mod.NONE): True,
                                       ("x", Mod.STAR): False})
        assert reduct(phi, true_x).initial == ()
        false_x = ConsistentAssignment({("x", Mod.NONE): False,
                                        ("x", Mod.STAR): False})
        assert reduct(phi, false_x).is_false

    def test_unknown_variable_rejected(self):
        phi = formula([Clause([lit("x")])])
        theta = ConsistentAssignment({("z", Mod.NONE): True,
                                      ("z", Mod.STAR): False})
        with pytest.raises(ValueError):
            reduct(phi, theta)

    def _random_formula(self, rng, names):
        clauses = []
        for _ in range(rng.randint(1, 4)):
            lits = [Lit(rng.choice(names),
                        rng.choice([Mod.NONE, Mod.STAR]),
                        rng.random() < 0.5)
                    for _ in range(rng.randint(1, 3))]
            clauses.append(Clause(lits))
        return formula(clauses)

    def test_monotone_and_subclause(self):
        rng = random.Random(1)
        names = ["a", "b", "c"]
        for _ in range(100):
            phi = self._random_formula(rng, names)
            for theta in consistent_assignments(
                    rng.sample(sorted(phi.variables),
                               rng.randint(0, len(phi.variables))),
                    phi.operators):
                red = reduct(phi, theta)
                assert len(red.clauses) <= len(phi.clauses)
                for c in red.clauses:
                    assert any(set(c.literals) <= set(orig.literals)
                               for orig in phi.clauses)

    def test_disjoint_composition_commutes(self):
        rng = random.Random(2)
        names = ["a", "b", "c", "d"]
        for _ in range(150):
            phi = self._random_formula(rng, names)
            if len(phi.variables) < 2:
                continue
            split = rng.randint(1, len(phi.variables) - 1)
            xs = sorted(phi.variables)[:split]
            ys = sorted(phi.variables)[split:]
            t1 = rng.choice(list(consistent_assignments(xs, phi.operators)))
            t2 = rng.choice(list(consistent_assignments(ys, phi.operators)))
            assert reduct(reduct(phi, t1), t2) == reduct(reduct(phi, t2), t1)


class TestRemoveTautologies:
    def test_negated_always_with_plain_positive(self):
        phi = formula([Clause([lit("x", Mod.STAR, False), lit("x")])])
        assert remove_tautologies(phi).clauses == ()

    def test_negated_always_with_future_positive(self):
        phi = formula([Clause([lit("x", Mod.STAR, False), lit("x", Mod.FUT),
                               lit("y")])],
                      ops={Mod.STAR, Mod.FUT})
        assert remove_tautologies(phi).clauses == ()

    def test_both_negative_kept(self):
        phi = formula([Clause([lit("x", Mod.STAR, False),
                               lit("x", positive=False)])])
        assert len(remove_tautologies(phi).clauses) == 1

    def test_plain_complement_pair_not_removed(self):
        # the rule only covers the always-vs-rest pattern
        phi = formula([Clause([lit("x"), lit("x", positive=False)])])
        assert len(remove_tautologies(phi).clauses) == 1

    def test_universe_preserved(self):
        phi = formula([Clause([lit("x", Mod.STAR, False), lit("x")]),
                       Clause([lit("y")])])
        assert remove_tautologies(phi).variables == phi.variables

    @pytest.mark.parametrize("ops", OPERATOR_SETS)
    def test_drops_exactly_the_clauses_every_assignment_satisfies(self, ops):
        rng = random.Random(9)
        dropped = 0
        for _ in range(60):
            phi = random_formula(rng, rng.randint(1, 4), rng.randint(1, 5),
                                 3, ops, seed_tautologies=True)
            kept = remove_tautologies(phi).clauses
            assert set(kept) <= set(phi.clauses)
            for c in phi.clauses:
                valid = all(
                    any(theta.values[(l.var, l.mod)] == l.positive for l in c)
                    for theta in consistent_assignments(c.vars(), ops))
                assert (c not in kept) == valid, c
                dropped += valid
        assert dropped > 0 or Mod.STAR not in ops


def same_fields(got, slow):
    """``got`` equals the formula ``SnfFormula.__post_init__`` builds, in
    every field and field type, the universe included."""
    assert (got.operators, got.initial, got.clauses, got.variables) == (
        slow.operators, slow.initial, slow.clauses, slow.variables)
    for name in ("operators", "initial", "clauses", "variables"):
        assert type(getattr(got, name)) is type(getattr(slow, name)), name


class TestDerivedCopies:
    """Derived formulas skip re-validation; their fields must be what a
    validated build of the same parts gives."""

    def random_formulas(self, seed):
        rng = random.Random(seed)
        for ops in OPERATOR_SETS * 20:
            yield rng, random_formula(rng, rng.randint(1, 5),
                                      rng.randint(1, 6), 4, ops,
                                      with_initial=True,
                                      seed_tautologies=True)

    def test_reduct(self):
        false_markers = 0
        for rng, phi in self.random_formulas(10):
            names = sorted(phi.variables)
            domain = rng.sample(names, rng.randint(0, min(2, len(names))))
            for theta in consistent_assignments(domain, phi.operators):
                red = reduct(phi, theta)
                false_markers += red.is_false
                same_fields(red, SnfFormula(red.operators, red.initial,
                                            red.clauses,
                                            variables=phi.variables))
        assert false_markers > 0

    def test_remove_tautologies_and_clause_part(self):
        for _, phi in self.random_formulas(11):
            core = remove_tautologies(phi)
            same_fields(core, SnfFormula(phi.operators, phi.initial,
                                         core.clauses,
                                         variables=phi.variables))
            same_fields(_derived(phi, (), phi.clauses),
                        SnfFormula(phi.operators, (), phi.clauses,
                                   variables=phi.variables))


class TestValidate:
    def test_valid_formula(self):
        phi = formula([Clause([lit("x", Mod.STAR), lit("y")])], initial=["y"])
        assert validate_normal_form(phi) == []

    def test_undeclared_operator(self):
        phi = formula([Clause([lit("x", Mod.FUT)])], ops={Mod.STAR})
        issues = validate_normal_form(phi)
        assert [v.kind for v in issues] == ["undeclared-operator"]

    def test_initial_fact_missing_from_clauses(self):
        phi = SnfFormula(frozenset({Mod.STAR}), ("s",),
                         (Clause([lit("x")]),))
        issues = validate_normal_form(phi)
        assert [v.kind for v in issues] == ["initial-not-in-clauses"]


@pytest.mark.parametrize("ops,initial,clauses,variables,message", [
    ({Mod.STAR}, ("1x",), (), (), "invalid variable name: '1x'"),
    ({Mod.STAR}, (), (Clause([lit("a-b", Mod.STAR)]),), (),
     "invalid variable name: 'a-b'"),
    # a declared name that occurs nowhere
    ({Mod.STAR}, (), (), ("1 x",), "invalid variable name: '1 x'"),
    ({Mod.NONE}, (), (), (), "operator set may only contain"),
], ids=["initial-name", "clause-name", "universe-name", "plain-operator"])
def test_invalid_formula_is_refused(ops, initial, clauses, variables,
                                    message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SnfFormula(frozenset(ops), initial, clauses, variables)
