import itertools
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ltlbd.fileio import format_model_table, parse_dimacs_col, parse_snf
from ltlbd.formula import Clause, Lit, Mod, SnfFormula, remove_tautologies
from ltlbd.gen import random_formula
from ltlbd.interp import (AssignmentSet, FiniteWindowInterpretation,
                          from_assignment_set, models)
from ltlbd.oracle import (SCAN_VAR_LIMIT, _star_by_encoding, _star_by_scan,
                          star_sat_oracle, window_sat_oracle)
from ltlbd.reductions import (STAR_KROM, coloring_from_model,
                              threecol_to_fp_horn, threecol_to_star_krom)


@st.composite
def declared_always_only_formulas(draw):
    """1-16 declared variables, half of the draws above ``SCAN_VAR_LIMIT``,
    up to 2n clauses of one to three plain and always-literals, and up to
    three initial facts."""
    n = draw(st.one_of(st.integers(1, SCAN_VAR_LIMIT),
                       st.integers(SCAN_VAR_LIMIT + 1, 16)))
    names = tuple(f"x{i + 1}" for i in range(n))
    lit = st.builds(Lit, st.sampled_from(names),
                    st.sampled_from([Mod.NONE, Mod.STAR]), st.booleans())
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=3).map(Clause),
                            min_size=1, max_size=2 * n))
    initial = draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
    return SnfFormula(frozenset({Mod.STAR}), tuple(initial), tuple(clauses),
                      variables=names)


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


def first_layout(phi):
    """The star encoding's witness contract by enumeration: the first
    (always-atoms, rows 1..n+1) tuple, each over the sorted variables,
    false before true, in which every row satisfies every clause with
    always-literals read from the always-atoms, row 1 carries the initial
    facts, and a true always-atom of variable i holds in every row while a
    false one fails in row 2+i.  Given the always-atoms no row constrains
    another, so each row is the first that qualifies on its own."""
    names = sorted(phi.variables)
    n = len(names)
    rows = [dict(zip(names, bits))
            for bits in itertools.product((False, True), repeat=n)]
    for bits in itertools.product((False, True), repeat=n):
        always = dict(zip(names, bits))

        def allowed(r, row):
            if r == 1 and not all(row[v] for v in phi.initial):
                return False
            for i, v in enumerate(names):
                if row[v] != always[v] and (always[v] or r == 2 + i):
                    return False
            return all(any((always[l.var] if l.mod is Mod.STAR else row[l.var])
                           == l.positive for l in c) for c in phi.clauses)

        chosen = [next((row for row in rows if allowed(r, row)), None)
                  for r in range(1, n + 2)]
        if None not in chosen:
            return from_assignment_set(AssignmentSet(tuple(chosen), chosen[0]))
    return None


def first_grid_model(phi, width):
    """The window oracle's witness contract by enumeration: the first cell
    grid (left edge, worlds 0..width, right edge, each row over the sorted
    variables, false before true) that models the formula."""
    names = sorted(phi.variables)
    n_rows = width + 3
    for bits in itertools.product((False, True), repeat=n_rows * len(names)):
        grid = [dict(zip(names, bits[r * len(names):(r + 1) * len(names)]))
                for r in range(n_rows)]
        m = FiniteWindowInterpretation(left=grid[0], window=tuple(grid[1:-1]),
                                       lo=0, right=grid[-1], start=0)
        if models(m, phi):
            return m
    return None


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

    @pytest.mark.parametrize("n", [3, SCAN_VAR_LIMIT + 1])
    def test_past_and_future_literals_rejected_under_always_only(self, n):
        # the formula declares only the always operator, yet holds [F]/[P]
        filler = [Clause([Lit(f"x{i}")]) for i in range(n - 2)]
        for lit in (Lit("a", Mod.FUT), Lit("a", Mod.PAST, False)):
            phi = formula(filler + [Clause([Lit("b", Mod.STAR), lit])])
            assert len(phi.variables) == n
            message = "a clause uses an operator the formula does not declare"
            with pytest.raises(ValueError, match=re.escape(message)):
                star_sat_oracle(phi)

    def test_encoding_witness_is_the_first_layout(self):
        rng = random.Random(25)
        for _ in range(300):
            phi = random_formula(rng, rng.randint(2, 3), rng.randint(1, 8),
                                 3, {Mod.STAR})
            assert _star_by_encoding(phi) == first_layout(phi)

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

    def test_strategies_at_the_scan_limit(self):
        n = SCAN_VAR_LIMIT
        # UNSAT: plain clauses contradict the initial fact (init r1, r1 -> r2,
        # r2 -> b, r2 -> ~b) beside always-literals over the other variables
        gadget = [Clause([Lit("r1", positive=False), Lit("r2")]),
                  Clause([Lit("r2", positive=False), Lit("b")]),
                  Clause([Lit("r2", positive=False), Lit("b", positive=False)])]
        filler = [Clause([Lit(f"x{i}", Mod.STAR), Lit(f"x{i + 1}")])
                  for i in range(n - 4)]
        phi = formula(gadget + filler, initial=["r1"])
        assert len(phi.variables) == n
        assert _star_by_scan(phi) is None
        assert _star_by_encoding(phi) is None
        # SAT with only the last candidate: x0..x5 hold in every world, so
        # their always-atoms have no false witness, and always-literals force
        # x6..x11
        half = n // 2
        plain = [Clause([Lit("x0")])] + [
            Clause([Lit(f"x{i}", positive=False), Lit(f"x{i + 1}")])
            for i in range(half - 1)]
        always = [Clause([Lit(f"x{half}", Mod.STAR)])] + [
            Clause([Lit(f"x{i}", Mod.STAR, False), Lit(f"x{i + 1}", Mod.STAR)])
            for i in range(half, n - 1)]
        phi = formula(plain + always, initial=[f"x{n - 1}"])
        assert len(phi.variables) == n
        for witness in (_star_by_scan(phi), _star_by_encoding(phi)):
            assert witness is not None and models(witness, phi)
            rows = (witness.left, *witness.window, witness.right)
            assert all(all(row.values()) for row in rows)

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

    def test_empty_clause_has_no_model(self):
        # the empty clause is grounded at every world like any other, and
        # the satisfiable clauses around it must not hide it
        phi = formula([Clause([Lit("s"), Lit("p", Mod.FUT)]), Clause([]),
                       Clause([Lit("p", Mod.PAST, False)])],
                      initial=["s"], ops={Mod.FUT, Mod.PAST})
        for width in (0, 1, 2):
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

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(declared_always_only_formulas())
    def test_agrees_with_star_oracle_on_the_always_fragment(self, phi):
        # at width n + 1 the window holds the star oracle's n + 1 rows, so
        # the two oracles must agree on every always-only formula, from the
        # star oracle's scan up to its encoding above SCAN_VAR_LIMIT; 200
        # examples take about 2 s, about a tenth of them UNSAT above it
        s = star_sat_oracle(phi)
        w = window_sat_oracle(phi, len(phi.variables) + 1)
        assert (s is None) == (w is None)

    def test_witness_is_the_first_grid_model(self):
        rng = random.Random(26)
        opsets = [set(ops) for r in range(4) for ops in
                  itertools.combinations((Mod.PAST, Mod.FUT, Mod.STAR), r)]
        for _ in range(40):
            phi = random_formula(rng, rng.randint(1, 2), rng.randint(1, 4),
                                 3, rng.choice(opsets))
            for width in (0, 1):
                assert (window_sat_oracle(phi, width)
                        == first_grid_model(phi, width))

    def test_budget(self):
        clauses = [Clause([Lit(f"w{i:03d}")]) for i in range(200)]
        phi = formula(clauses, ops={Mod.FUT})
        with pytest.raises(ValueError):
            window_sat_oracle(phi, 50)

    def test_negative_width_rejected(self):
        phi = formula([Clause([Lit("x")])], ops={Mod.FUT})
        with pytest.raises(ValueError):
            window_sat_oracle(phi, -1)


def test_committed_witnesses_replay():
    # data/oracle_corpus.txt, written by data/make_oracle_corpus.py, holds
    # the model table or null that the star oracle (both strategies) and
    # the window oracle at widths 0-3 return on 540 formulas, and the
    # witness and read-back colouring of the benchmark's 48 seed-7
    # reduce-3col graphs, so a change to any witness shows here
    corpus = Path(__file__).parent / "data" / "oracle_corpus.txt"
    entries = [json.loads(line) for line in corpus.read_text().splitlines()]
    assert len(entries) == 588
    star = {"star": star_sat_oracle, "scan": _star_by_scan,
            "encoding": _star_by_encoding}

    def table(witness):
        return None if witness is None else format_model_table(witness)

    for entry in entries:
        name = entry["name"]
        if "formula" in entry:
            phi = parse_snf(entry["formula"])
            for call, want in entry["answers"].items():
                witness = (window_sat_oracle(phi, int(call[len("window "):]))
                           if call.startswith("window ") else star[call](phi))
                assert table(witness) == want, (name, call)
            continue
        graph, target = parse_dimacs_col(entry["graph"]), entry["target"]
        if target == STAR_KROM:
            witness = star_sat_oracle(threecol_to_star_krom(graph)[0])
        else:
            witness = window_sat_oracle(threecol_to_fp_horn(graph)[0],
                                        graph.n + 2)
        assert table(witness) == entry["table"], name
        colouring = (None if witness is None
                     else coloring_from_model(graph, witness, target))
        assert (None if colouring is None else
                [colouring[i] for i in range(1, graph.n + 1)]) == (
                    entry["colouring"]), name
