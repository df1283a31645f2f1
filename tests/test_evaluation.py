import copy
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ltlbd

from ltlbd import _kernels, evaluation
from ltlbd.detection import HORN, detect_horn_backdoor, verify_backdoor
from ltlbd.evaluation import (EvalResult, ThetaSet, assignments_over,
                              candidate_encodings, candidate_theta_sets,
                              encoding_size_bound, evaluate_horn_star,
                              global_assignment, propositionalize,
                              relabel_copy)
from ltlbd.fileio import parse_snf
from ltlbd.formula import (Clause, Lit, Mod, SnfFormula, reduct,
                           remove_tautologies)
from ltlbd.gen import planted_instance, random_formula
from ltlbd.interp import AssignmentSet, from_assignment_set, models
from ltlbd.oracle import star_sat_oracle
from ltlbd.propsat import PropCnf, copy_atom, global_atom, horn_sat, plain_atom

from tables import describe


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

    def test_equals_the_normalised_relabelling(self):
        rng = random.Random(12)
        pool = [plain_atom("v"), plain_atom("w"), global_atom("v"),
                global_atom("w"), copy_atom("v", 2, "t"),
                copy_atom("w", 1, "t")]
        copied = 0
        for i in range(400):
            # every other input holds no copy atom, the rest may hold some
            atoms = pool[:4] if i % 2 else pool
            cnf = PropCnf([[(rng.choice(atoms), rng.random() < 0.5)
                            for _ in range(rng.randint(0, 4))]
                           for _ in range(rng.randint(0, 4))])
            copied += any(a.kind == "copy" for c in cnf.clauses for a, _ in c)
            want = PropCnf([[(copy_atom(a.var, 2, "t")
                              if a.kind == "plain" and a.var == "v" else a,
                              pos) for a, pos in c] for c in cnf.clauses])
            assert relabel_copy(cnf, ["v"], 2, "t") == want, cnf
        assert copied > 100
        # a copy atom meets its plain atom's image: the pair merges
        cnf = PropCnf([[(plain_atom("v"), True),
                        (copy_atom("v", 2, "t"), True)]])
        assert relabel_copy(cnf, ["v"], 2, "t").clauses == (
            ((copy_atom("v", 2, "t"), True),),)


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
        _, cnf = next(candidate_encodings(phi, ()))
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
        with pytest.raises(ValueError, match="a clause uses an operator "
                           "the formula does not declare"):
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
            bound = encoding_size_bound(remove_tautologies(phi), backdoor)
            assert max(len(cnf.clauses) for _, cnf
                       in candidate_encodings(phi, backdoor)) <= bound


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
            # the quotient's one copy per member gives one row per member
            # plus one for the designated member's copy 1
            ts, aset = result.theta_set, result.assignment_set
            assert len(aset.members) <= len(ts.members) + 1
            for theta in ts.members:
                agreeing = [m for m in aset.members
                            if all(m[v] == theta[v] for v in theta)]
                if theta == ts.designated:
                    assert 1 <= len(agreeing) <= 2
                else:
                    assert len(agreeing) == 1


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
    # the factored, incremental quotient evaluation must answer exactly what
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
            result = evaluate_horn_star(phi, chosen)
            assert result.satisfiable == expected
            tried = list(itertools.islice(candidate_encodings(phi, chosen),
                                          result.tried))
            solved = [horn_sat(cnf) for _, cnf in tried]
            if result.satisfiable:
                assert models(result.interpretation, phi)
                assert tried[-1][0] == result.theta_set
                assert all(m is None for m in solved[:-1])
                members, designated = _rows_of(solved[-1], core, chosen,
                                               result.theta_set)
                assert list(result.assignment_set.members) == members
                assert result.assignment_set.initial == designated
            else:
                assert all(m is None for m in solved)
                assert result.tried == len(list(candidate_theta_sets(chosen)))


def test_committed_certificates_replay():
    # data/eval_corpus.txt, written by data/make_eval_corpus.py, holds the
    # verdict, theta set, rows in order and model table of the benchmark's
    # seed-7 evaluate-star formulas and 300 random formulas, so a change to
    # any certificate shows here
    corpus = Path(__file__).parent / "data" / "eval_corpus.txt"
    entries = [json.loads(line) for line in corpus.read_text().splitlines()]
    assert len(entries) == 440
    for entry in entries:
        name, text, backdoor = (entry.pop(key)
                                for key in ("name", "formula", "backdoor"))
        result = evaluate_horn_star(parse_snf(text), backdoor)
        assert describe(result) == entry, name


@st.composite
def wide_backdoor_formulas(draw):
    """9-12 variables, a drawn set of 1-4 of them, and clauses with 1-2
    literals over that set, at most two negative literals over the others
    and at most one positive: so the set is a strong Horn backdoor."""
    names = [f"x{i + 1}" for i in range(draw(st.integers(9, 12)))]
    back = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4,
                         unique=True))
    rest = [v for v in names if v not in back]
    mods = st.sampled_from([Mod.NONE, Mod.STAR])

    def lits(pool, sign, min_size, max_size):
        return st.lists(st.builds(Lit, st.sampled_from(pool), mods, sign),
                        min_size=min_size, max_size=max_size)

    clause = st.builds(lambda b, n, p: Clause(b + n + p),
                       lits(back, st.booleans(), 1, 2),
                       lits(rest, st.just(False), 0, 2),
                       lits(rest, st.just(True), 0, 1))
    clauses = draw(st.lists(clause, min_size=1, max_size=2 * len(names)))
    initial = draw(st.lists(st.sampled_from(names), min_size=1, max_size=5,
                            unique=True))
    return SnfFormula(frozenset({Mod.STAR}), tuple(initial), tuple(clauses),
                      tuple(names))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(wide_backdoor_formulas())
def test_wide_formulas_match_the_star_oracle(phi):
    # variable counts past the exhaustive differentials' 1-8, through the
    # smallest detected backdoor (size 0-4)
    backdoor = next(found for k in range(5)
                    if (found := detect_horn_backdoor(phi, k)) is not None)
    result = evaluate_horn_star(phi, backdoor)
    assert result.satisfiable == (star_sat_oracle(phi) is not None)
    if result.satisfiable:
        assert models(result.interpretation, phi)


def test_failed_designated_variant_leaves_the_shared_closure_intact():
    # init x, ~x | b, ~[*]b with backdoor {b}: b false at the start fails
    # through the initial fact, both singletons fail, and the pair succeeds
    # only with b true at the start, right after its failed variant
    phi = formula([Clause([Lit("x", positive=False), Lit("b")]),
                   Clause([Lit("b", Mod.STAR, False)])], initial=["x"])
    result = evaluate_horn_star(phi, ("b",))
    assert result.satisfiable
    assert result.tried == 4 and len(result.theta_set.members) == 2
    assert result.theta_set.designated == {"b": True}
    _, cnf = list(candidate_encodings(phi, ("b",)))[3]
    members, designated = _rows_of(horn_sat(cnf), phi, ("b",),
                                   result.theta_set)
    assert list(result.assignment_set.members) == members
    assert result.assignment_set.initial == designated
    assert models(result.interpretation, phi)


_BLOCK_INSTANCES = pytest.mark.parametrize(
    "make", [lambda: _unsat_gadget(0, 8, 14, 3),
             lambda: planted_instance(1, 10, 20, HORN, 2, [Mod.STAR])],
    ids=["k3-gadget", "planted-k2"])


@_BLOCK_INSTANCES
def test_each_block_holds_one_copy_and_each_kept_clause_once(make):
    # a (member, mask) block lays out the globals and one copy, 2r local
    # atoms, and indexes once every clause of the core that no backdoor
    # literal satisfies under that member and the set's unanimity: read back
    # from its heads and occurrence lists, its clauses are the reduct of the
    # core's clauses under global_assignment, in order, with the global of
    # rest[j] at j and its copy at r + j
    phi, back = make()
    core = remove_tautologies(phi)
    clauses_only = SnfFormula(core.operators, (), core.clauses,
                              core.variables)
    enc = evaluation._Encoding(core, back)
    r = len(enc.rest)
    local = {(v, mod): j + (r if mod is Mod.NONE else 0)
             for j, v in enumerate(enc.rest) for mod in (Mod.STAR, Mod.NONE)}
    n_blocks = 0
    for combo in evaluation._member_sets(len(enc.pool)):
        members = [enc.pool[p] for p in combo]
        mask = evaluation._unanimity(combo, len(enc.pool))
        for p in combo:
            block = enc._index(p, mask)
            if block is None:
                continue
            glob = global_assignment(members, back, enc.pool[p])
            kept = sum(not any(lit.var in back
                               and glob.get(lit.var, lit.mod) == lit.positive
                               for lit in clause)
                       for clause in core.clauses)
            assert len(block.values) == 2 * r
            assert len(block.heads) == kept
            indexed = [{(a, False) for a in range(2 * r) if ci in block.occ[a]}
                       | ({(head, True)} if head >= 0 else set())
                       for ci, head in enumerate(block.heads)]
            reduced = reduct(clauses_only, glob)
            assert not reduced.is_false
            assert indexed == [{(local[lit.var, lit.mod], lit.positive)
                                for lit in clause}
                               for clause in reduced.clauses]
            n_blocks += 1
    assert n_blocks


@_BLOCK_INSTANCES
def test_chaining_leaves_the_cached_blocks_alone(make):
    # member sets share cached blocks (same member and unanimity mask) and
    # variants share their set's closure; chaining copies a block's counts
    # and values before it first changes them, so closing every set and
    # extending every variant leaves the coded clauses and each block's
    # index, counts, closure values and masks as they were built
    phi, back = make()
    enc = evaluation._Encoding(remove_tautologies(phi), back)
    combos = list(evaluation._member_sets(len(enc.pool)))
    for combo in combos:
        mask = evaluation._unanimity(combo, len(enc.pool))
        for p in combo:
            if (p, mask) not in enc.blocks:
                enc.blocks[p, mask] = enc._index(p, mask)

    def snapshot():
        return copy.deepcopy((enc.codes, {
            key: block and (block.heads, block.counts, block.occ,
                            block.values, block.derived, block.tied)
            for key, block in enc.blocks.items()}))

    before = snapshot()
    written = 0
    for combo in combos:
        shared = enc.closure(combo)
        if shared is None:
            continue
        written += any(shared.owned)
        for d in combo:
            state = enc.variant(shared, combo, d)
            written += state is not None and any(state.owned)
    assert written and snapshot() == before


def test_each_block_is_indexed_once_and_nothing_is_reduced(monkeypatch):
    # the clauses are coded once per formula, so a call indexes each
    # (member, unanimity mask) block at most once and computes no reduct;
    # only the stream of encodings does
    keys = []
    index = evaluation._Encoding._index

    def counted(self, p, mask):
        keys.append((p, mask))
        return index(self, p, mask)

    def refused(*args):
        raise AssertionError("the solve computed a reduct")

    monkeypatch.setattr(evaluation._Encoding, "_index", counted)
    monkeypatch.setattr(evaluation, "reduct", refused)
    for phi, back in (_unsat_gadget(1, 8, 14, 3),
                      planted_instance(1, 10, 20, HORN, 2, [Mod.STAR])):
        keys.clear()
        evaluate_horn_star(phi, back)
        assert keys and len(keys) == len(set(keys))
    with pytest.raises(AssertionError, match="computed a reduct"):
        next(candidate_encodings(phi, back))


def test_reference_encoding_shares_no_code_with_the_solve(monkeypatch):
    # candidate_encodings builds each encoding from its definition, so it
    # is unchanged with the integer solve's encoder replaced
    class Refused:
        def __init__(self, *args):
            raise AssertionError("the reference encoding used _Encoding")

    monkeypatch.setattr(ltlbd.evaluation, "_Encoding", Refused)
    # init x, ~x | b, ~[*]b | [*]x with backdoor {b}, members b=0 and b=1:
    # block 0 keeps ~x, block 1 is empty, and b=1 carries the fact x
    phi = formula([Clause([Lit("x", positive=False), Lit("b")]),
                   Clause([Lit("b", Mod.STAR, False), Lit("x", Mod.STAR)])],
                  initial=["x"])
    ts, cnf = list(candidate_encodings(phi, ("b",)))[3]
    assert ts == ThetaSet(({"b": False}, {"b": True}), {"b": True})
    g = global_atom("x")
    copies = [copy_atom("x", i, label) for label in "01" for i in (1, 2)]
    assert cnf.clauses == (
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


def _reference_evaluate(phi, backdoor):
    """The solve path that evaluation replaced, kept here as a differential
    reference: per (member, unanimity mask) the :func:`reduct` of the core,
    coded on the member's copies of one global layout, and per member set
    one :func:`horn_index` over its concatenated blocks and ties."""
    core = remove_tautologies(phi)
    back = tuple(sorted(set(backdoor)))
    rest = sorted(set(core.variables) - set(back))
    r, c = len(rest), min(len(rest) + 1, 2)
    slot = {v: j for j, v in enumerate(rest)}
    pool = assignments_over(back)
    n_atoms = r + len(pool) * c * r
    clause_part = SnfFormula(core.operators, (), core.clauses, core.variables)
    dead = [any(v in theta and not theta[v] for v in core.initial)
            for theta in pool]

    def base(p, i):
        return r + (p * c + i - 1) * r + 1

    blocks = {}

    def block(p, mask, members):
        if (p, mask) not in blocks:
            glob = global_assignment(members, back, pool[p])
            coded = []
            for i in range(1, c + 1):
                for clause in reduct(clause_part, glob).clauses:
                    coded.append([(1 if lit.positive else -1)
                                  * (base(p, i) + slot[lit.var]
                                     if lit.mod is Mod.NONE
                                     else slot[lit.var] + 1)
                                  for lit in clause])
            blocks[p, mask] = coded
        return blocks[p, mask]

    tried = 0
    for size in range(1, len(pool) + 1):
        for combo in itertools.combinations(range(len(pool)), size):
            members = tuple(pool[p] for p in combo)
            mask = len(pool) - 1
            for p in combo:
                mask &= p
            shared = False
            for d in combo:
                tried += 1
                if dead[d]:
                    continue
                if shared is False:
                    clauses = [cl for p in combo
                               for cl in block(p, mask, members)]
                    bases = [base(p, i) for p in combo
                             for i in range(1, c + 1)]
                    for j in range(r):
                        clauses += [[-j - 1, b + j] for b in bases]
                        clauses.append([j + 1] + [-(b + j) for b in bases])
                    heads, counts, occ, facts = _kernels.horn_index(n_atoms,
                                                                    clauses)
                    values = [0] * n_atoms
                    shared = ((values, heads, counts, occ)
                              if _kernels.horn_forward(heads, counts, occ,
                                                       values, facts)
                              else None)
                if shared is None:
                    continue
                values, heads, counts, occ = shared
                values = values[:]
                units = [base(d, 1) - 1 + slot[v] for v in core.initial
                         if v not in pool[d]]
                if not _kernels.horn_forward(heads, counts[:], occ, values,
                                             units):
                    continue
                rows = []
                for p in combo:
                    for i in range(1, c + 1):
                        row = dict(pool[p])
                        row.update(zip(rest, map(bool, values[
                            base(p, i) - 1:base(p, i) - 1 + r])))
                        rows.append(row)
                aset = AssignmentSet(tuple(rows),
                                     rows[combo.index(d) * c])
                return EvalResult("SAT", ThetaSet(members, pool[d]), aset,
                                  from_assignment_set(aset), tried)
    return EvalResult("UNSAT", tried=tried)


def _differential_pairs():
    """Seeded (formula, backdoor) pairs: every verified backdoor of size
    <= 2 of random formulas, planted instances at k = 0..3 and UNSAT
    gadgets at k = 2..4 on small n."""
    rng = random.Random(21)
    for _ in range(400):
        phi = random_formula(rng, rng.randint(1, 5), rng.randint(1, 6), 3,
                             {Mod.STAR})
        core = remove_tautologies(phi)
        names = sorted(phi.variables)
        for size in range(min(2, len(names)) + 1):
            for chosen in itertools.combinations(names, size):
                if verify_backdoor(core, chosen, HORN):
                    yield phi, chosen
    for seed in range(400):
        n_vars = 3 + seed % 6
        yield planted_instance(seed, n_vars, rng.randint(1, 2 * n_vars), HORN,
                               seed % 4, {Mod.STAR})
    for seed in range(40):
        yield _unsat_gadget(seed, 4 + seed % 4, 6, 2 + (seed % 10 == 9))
    yield _unsat_gadget(0, 4, 3, 4)


def test_solve_matches_the_replaced_reduct_path():
    # the per-block index and the chaining across blocks close the same
    # quotient as one horn_index over each set's concatenated blocks, so
    # the verdict, the certificate and the candidates tried are unchanged;
    # on UNSAT all n * 2^(n-1) candidates over n = 2^k members are tried
    n_pairs = n_sat = 0
    for phi, back in _differential_pairs():
        got = evaluate_horn_star(phi, back)
        assert got == _reference_evaluate(phi, back), (phi, back)
        n = 1 << len(back)
        assert got.satisfiable or got.tried == n << n - 1
        n_pairs += 1
        n_sat += got.satisfiable
    assert n_pairs >= 2000 and 0.2 * n_pairs <= n_sat <= 0.9 * n_pairs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_k3_unsat_gadget_tries_every_candidate(seed):
    # no candidate can succeed, so all 2^3 * 2^(2^3 - 1) are tried
    phi, backdoor = _unsat_gadget(seed, 8, 14, 3)
    result = evaluate_horn_star(phi, backdoor)
    assert not result.satisfiable
    assert star_sat_oracle(phi) is None
    assert result.tried == 1024


def test_on_candidate_replays_the_first_tried_encodings():
    # the benchmark's counters read the hook (UNSAT; SAT on the 4th
    # candidate, after three dead ones; SAT on the 1st)
    for phi, back in (_unsat_gadget(0, 5, 6, 2),
                      planted_instance(14, 6, 8, HORN, 2, {Mod.STAR}),
                      planted_instance(2, 5, 6, HORN, 1, {Mod.STAR})):
        seen = []
        result = evaluate_horn_star(
            phi, back, on_candidate=lambda ts, cnf: seen.append((ts, cnf)))
        assert result == evaluate_horn_star(phi, back)
        assert seen == list(itertools.islice(candidate_encodings(phi, back),
                                             result.tried))


def test_k2_unsat_gadget_at_detection_scale():
    # the k=2 gadget at n = 1000: one copy per member keeps each member
    # set's encoding linear in n, where r+1 copies made it quadratic
    phi, backdoor = _unsat_gadget(0, 1000, 2000, 2)
    t0 = time.perf_counter()
    result = evaluate_horn_star(phi, backdoor)
    elapsed = time.perf_counter() - t0
    assert not result.satisfiable
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_k3_unsat_gadget_at_detection_scale():
    # 255 member sets at n = 1000: each block is indexed once per key and
    # a set only chains what its globals add, so no set re-indexes its
    # blocks
    phi, backdoor = _unsat_gadget(0, 1000, 2000, 3)
    t0 = time.perf_counter()
    result = evaluate_horn_star(phi, backdoor)
    elapsed = time.perf_counter() - t0
    assert not result.satisfiable
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_k4_unsat_gadget_tries_every_set_in_seconds():
    # 2^16 - 1 member sets, each closed from the cached block closures
    phi, backdoor = _unsat_gadget(0, 8, 14, 4)
    t0 = time.perf_counter()
    result = evaluate_horn_star(phi, backdoor)
    elapsed = time.perf_counter() - t0
    assert not result.satisfiable
    assert elapsed < 5.0, f"{elapsed:.2f} s"


def test_sat_chain_at_detection_scale():
    # init x1, x_i -> x_{i+1} and b1 | b2 | ~x1000: the certificate is read
    # off the quotient's copies, so a SAT verdict stays linear in n, like
    # the solve
    n = 1000
    chain = [Clause([Lit(f"x{i}", positive=False), Lit(f"x{i + 1}")])
             for i in range(1, n)]
    phi = formula(chain + [Clause([Lit("b1"), Lit("b2"),
                                   Lit(f"x{n}", positive=False)])],
                  initial=["x1"])
    t0 = time.perf_counter()
    result = evaluate_horn_star(phi, ("b1", "b2"))
    elapsed = time.perf_counter() - t0
    assert result.satisfiable
    assert models(result.interpretation, phi)
    assert elapsed < 0.5, f"{elapsed:.2f} s"


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
try:
    next(ltlbd.evaluation.candidate_encodings(phi, ()))
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
