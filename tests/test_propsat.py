import copy
import itertools
import pickle
import random

import pytest

from ltlbd.propsat import (PropCnf, brute_sat, copy_atom, global_atom,
                           horn_sat, plain_atom, solve_cnf, to_dimacs,
                           two_sat)

A, B, C = plain_atom("a"), plain_atom("b"), plain_atom("c")


def cnf(*clauses):
    return PropCnf(clauses)


def satisfies(model, f):
    return all(any(model[a] == pos for a, pos in c) for c in f.clauses)


def random_cnf(rng, atoms, max_clauses=8, max_len=4):
    out = []
    for _ in range(rng.randint(0, max_clauses)):
        out.append([(rng.choice(atoms), rng.random() < 0.5)
                    for _ in range(rng.randint(0, max_len))])
    return PropCnf(out)


class TestHorn:
    def test_propagation_chain_unsat(self):
        f = cnf([(A, True)], [(A, False), (B, True)], [(B, False)])
        assert horn_sat(f) is None

    def test_empty_formula_all_false(self):
        assert horn_sat(cnf()) == {}

    def test_minimal_model(self):
        f = cnf([(A, True)], [(A, False), (B, True)], [(C, False), (B, True)])
        model = horn_sat(f)
        assert model == {A: True, B: True, C: False}

    def test_rejects_non_horn(self):
        with pytest.raises(ValueError):
            horn_sat(cnf([(A, True), (B, True)]))

    def test_true_atoms_are_forced(self):
        rng = random.Random(11)
        atoms = [plain_atom(f"x{i}") for i in range(6)]
        for _ in range(200):
            clauses = []
            for _ in range(rng.randint(1, 8)):
                negs = rng.sample(atoms, rng.randint(0, 3))
                clause = [(a, False) for a in negs]
                if rng.random() < 0.8:
                    clause.append((rng.choice(atoms), True))
                clauses.append(clause)
            f = PropCnf(clauses)
            model = horn_sat(f)
            if model is None:
                continue
            assert satisfies(model, f)
            for a, value in model.items():
                if value:
                    forced = PropCnf(list(f.clauses) + [((a, False),)])
                    assert horn_sat(forced) is None


class TestTwoSat:
    def test_all_four_combinations_excluded(self):
        f = cnf([(A, True), (B, True)], [(A, False), (B, True)],
                [(A, True), (B, False)], [(A, False), (B, False)])
        assert two_sat(f) is None

    def test_single_clause(self):
        model = two_sat(cnf([(A, True), (B, True)]))
        assert model is not None and (model[A] or model[B])

    def test_rejects_non_krom(self):
        with pytest.raises(ValueError):
            two_sat(cnf([(A, True), (B, True), (C, True)]))

    def test_implication_cycle(self):
        f = cnf([(A, False), (B, True)], [(B, False), (A, True)], [(A, True)])
        model = two_sat(f)
        assert model == {A: True, B: True}


class TestBrute:
    def test_empty(self):
        assert brute_sat(cnf()) == {}

    def test_contradiction(self):
        assert brute_sat(cnf([(A, True)], [(A, False)])) is None

    def test_returns_first_in_order(self):
        model = brute_sat(cnf([(A, True), (B, True)]))
        assert model == {A: False, B: True}

    def test_budget(self):
        atoms = [plain_atom(f"y{i}") for i in range(25)]
        with pytest.raises(ValueError):
            brute_sat(PropCnf([[(a, True)] for a in atoms]))


class TestAgreement:
    def test_exhaustive_small_formulas(self):
        atoms = [A, B, C]
        pool = []
        for size in (1, 2, 3):
            for combo in itertools.combinations(atoms, size):
                for signs in itertools.product((True, False), repeat=size):
                    pool.append(tuple(zip(combo, signs)))
        for i in range(len(pool)):
            for j in range(i, len(pool)):
                f = PropCnf([pool[i], pool[j]])
                b = brute_sat(f)
                assert (solve_cnf(f) is None) == (b is None)
                if f.is_horn:
                    assert (horn_sat(f) is None) == (b is None)
                if f.is_krom:
                    assert (two_sat(f) is None) == (b is None)

    def test_random_agreement_and_lex_minimality(self):
        rng = random.Random(1)
        atoms = [plain_atom(f"x{i}") for i in range(8)]
        for _ in range(300):
            f = random_cnf(rng, atoms)
            b = brute_sat(f)
            s = solve_cnf(f)
            assert (b is None) == (s is None)
            if b is not None:
                assert b == s  # both are the lexicographically minimal model
                assert satisfies(s, f)
            if f.is_horn:
                # the minimal model is pointwise below every model, so it is
                # the lexicographically first one
                assert horn_sat(f) == b
            if f.is_krom:
                assert two_sat(f) == b


class TestCnfStructure:
    def test_is_horn_is_krom_flags(self):
        f = cnf([(A, True), (B, False)], [(C, False)])
        assert f.is_horn and f.is_krom
        assert not cnf([(A, True), (B, True)]).is_horn
        assert not cnf([(A, True), (B, True), (C, True)]).is_krom

    def test_atom_kinds_are_distinct(self):
        assert plain_atom("v") != global_atom("v")
        assert copy_atom("v", 1, "t") != copy_atom("v", 2, "t")
        assert copy_atom("v", 1, "s") != copy_atom("v", 1, "t")
        with pytest.raises(ValueError):
            copy_atom("v", 0, "t")

    def test_dimacs_round_trip_semantics(self):
        f = cnf([(A, True), (global_atom("b"), False)],
                [(copy_atom("b", 2, "01"), True)])
        text, names = to_dimacs(f)
        lines = text.strip().splitlines()
        assert lines[0] == "p cnf 3 2"
        assert len(names) == 3
        clause_lines = [sorted(int(x) for x in ln.split()[:-1])
                        for ln in lines[1:]]
        # every clause maps to distinct integer literals within bounds
        for cl in clause_lines:
            assert all(1 <= abs(x) <= 3 for x in cl)


class TestCnfValueType:
    def example(self):
        return cnf([(A, True), (global_atom("b"), False), (A, True)],
                   [(copy_atom("b", 2, "01"), True)], [])

    def test_pickle_and_deepcopy_round_trip(self):
        f = self.example()
        copies = [pickle.loads(pickle.dumps(f, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for got in copies + [copy.deepcopy(f), copy.copy(f)]:
            assert type(got) is PropCnf
            assert got == f and hash(got) == hash(f)
            assert repr(got) == repr(f)

    def test_clauses_refuse_assignment_and_deletion(self):
        f = self.example()
        for name in ("clauses", "new"):
            with pytest.raises(AttributeError):
                setattr(f, name, ())
            with pytest.raises(AttributeError):
                delattr(f, name)
        assert len(f) == 3

    def test_equality_reads_the_normalised_clauses(self):
        f = self.example()
        assert f.clauses[0] == ((A, True), (global_atom("b"), False))
        assert f == PropCnf.from_normal(f.clauses)
        assert f != cnf(*f.clauses[:2])
        assert f != f.clauses
        assert repr(cnf([(A, False)])) == (
            "PropCnf(clauses=(((Atom(kind='plain', var='a', index=0, "
            "label=''), False),),))")
