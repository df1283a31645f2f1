import itertools
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ltlbd.detection import (HORN, KROM, ConflictGraph, HittingFamily,
                             _first_hitting_set, build_horn_conflict_graph,
                             build_krom_hitting_family, detect_horn_backdoor,
                             detect_krom_backdoor, hitting_set_3,
                             minimal_backdoor_bruteforce, verify_backdoor,
                             vertex_cover)
from ltlbd.fileio import parse_snf
from ltlbd.formula import (Clause, Lit, Mod, SnfFormula, _local_choices,
                           assignment_modalities, clause_is_horn,
                           clause_is_krom, consistent_assignments,
                           remove_tautologies)
from ltlbd.gen import random_formula


def formula(clauses, ops={Mod.STAR}, initial=()):
    return SnfFormula(frozenset(ops), tuple(initial), tuple(clauses))


def covers(graph, chosen):
    chosen = set(chosen)
    return all(chosen & set(e) for e in graph.edges)


def hits(family, chosen):
    chosen = set(chosen)
    return all(chosen & set(s) for s in family.sets)


class TestConflictGraph:
    def test_two_positive_literals_give_an_edge(self):
        phi = formula([Clause([Lit("x"), Lit("y"), Lit("z", positive=False)])])
        g = build_horn_conflict_graph(phi)
        assert g.edges == (("x", "y"),)

    def test_same_variable_two_modalities_gives_self_loop(self):
        phi = formula([Clause([Lit("x"), Lit("x", Mod.FUT)])],
                      ops={Mod.STAR, Mod.FUT})
        g = build_horn_conflict_graph(phi)
        assert g.edges == (("x",),)

    def test_horn_formula_has_no_edges(self):
        phi = formula([Clause([Lit("x", positive=False), Lit("y")]),
                       Clause([Lit("z", positive=False)])])
        assert build_horn_conflict_graph(phi).edges == ()


class TestHittingFamily:
    def test_three_literal_clause(self):
        phi = formula([Clause([Lit("x", positive=False), Lit("y"),
                               Lit("z", Mod.FUT)])],
                      ops={Mod.STAR, Mod.FUT})
        fam = build_krom_hitting_family(phi)
        assert fam.sets == (("x", "y", "z"),)

    def test_binary_clauses_give_nothing(self):
        phi = formula([Clause([Lit("x"), Lit("y", positive=False)])])
        assert build_krom_hitting_family(phi).sets == ()

    def test_four_literal_clause_gives_all_triples(self):
        phi = formula([Clause([Lit(v) for v in "abcd"])])
        fam = build_krom_hitting_family(phi)
        assert len(fam.sets) == 4
        assert all(len(s) == 3 for s in fam.sets)

    def test_repeated_variable_shrinks_the_set(self):
        phi = formula([Clause([Lit("x"), Lit("x", Mod.STAR), Lit("y")])])
        fam = build_krom_hitting_family(phi)
        assert fam.sets == (("x", "y"),)


class TestCoverAndHitting:
    triangle = ConflictGraph((("a", "b"), ("a", "c"), ("b", "c")))

    def test_triangle_bounds(self):
        assert vertex_cover(self.triangle, 1) is None
        got = vertex_cover(self.triangle, 2)
        assert got is not None and len(got) <= 2 and covers(self.triangle, got)

    def test_self_loop_forced(self):
        g = ConflictGraph((("a",), ("a", "b")))
        assert vertex_cover(g, 1) == frozenset({"a"})

    def test_hitting_simple(self):
        fam = HittingFamily((("a", "b", "c"), ("a", "d", "e")))
        assert hitting_set_3(fam, 1) == frozenset({"a"})

    def test_hitting_two_disjoint_units(self):
        fam = HittingFamily((("a",), ("b",)))
        assert hitting_set_3(fam, 1) is None

    def test_forced_vertices_over_budget(self):
        g = ConflictGraph((("a",), ("b",)))
        assert vertex_cover(g, 1) is None
        assert vertex_cover(g, 2) == frozenset("ab")

    def test_empty_set_is_never_hit(self):
        fam = HittingFamily(((), ("a",)))
        for k in range(3):
            assert hitting_set_3(fam, k) is None

    def test_deep_hitting_set_does_not_recurse(self):
        fam = HittingFamily(tuple(sorted(
            (f"a{i}", f"b{i}", f"c{i}") for i in range(3000))))
        got = hitting_set_3(fam, 3000)
        assert got is not None and len(got) == 3000 and hits(fam, got)

    def test_deep_vertex_cover_does_not_recurse(self):
        g = ConflictGraph(tuple(sorted(
            (f"a{i}", f"b{i}") for i in range(3000))))
        got = vertex_cover(g, 3000)
        assert got is not None and len(got) == 3000 and covers(g, got)

    def test_cover_matches_exhaustive_minimum_on_random_graphs(self):
        rng = random.Random(3)
        for _ in range(60):
            names = [f"v{i}" for i in range(rng.randint(2, 7))]
            edges = set()
            for _ in range(rng.randint(1, 10)):
                pair = rng.sample(names, 2)
                edges.add(tuple(sorted(pair)))
            g = ConflictGraph(tuple(sorted(edges)))
            best = next(size for size in range(len(names) + 1)
                        for combo in [None]
                        if any(covers(g, c)
                               for c in itertools.combinations(names, size)))
            for k in range(len(names) + 1):
                got = vertex_cover(g, k)
                assert (got is not None) == (k >= best)
                if got is not None:
                    assert len(got) <= k and covers(g, got)

    def test_hitting_matches_exhaustive_minimum_on_random_families(self):
        rng = random.Random(4)
        for _ in range(60):
            names = [f"v{i}" for i in range(rng.randint(3, 7))]
            sets = {tuple(sorted(rng.sample(names, rng.randint(1, 3))))
                    for _ in range(rng.randint(1, 8))}
            fam = HittingFamily(tuple(sorted(sets)))
            best = next(size for size in range(len(names) + 1)
                        if any(hits(fam, c)
                               for c in itertools.combinations(names, size)))
            for k in range(len(names) + 1):
                got = hitting_set_3(fam, k)
                assert (got is not None) == (k >= best)
                if got is not None:
                    assert len(got) <= k and hits(fam, got)


def first_hitting_set_by_definition(sets, k, chosen=frozenset()):
    """The first hitting set of size <= len(chosen) + k in depth-first
    order, branching over the elements of the first unhit set: no packing,
    no exclusion."""
    unhit = next((s for s in sets if chosen.isdisjoint(s)), None)
    if unhit is None:
        return chosen
    if k == 0:
        return None
    for e in unhit:
        found = first_hitting_set_by_definition(sets, k - 1, chosen | {e})
        if found is not None:
            return found
    return None


class TestPackingBound:
    def test_same_set_as_the_unpruned_search(self):
        rng = random.Random(8)
        pairs = found = 0
        for _ in range(3000):
            names = [f"v{i}" for i in range(rng.randint(1, 9))]
            sizes = [rng.randint(0, min(3, len(names)))
                     for _ in range(rng.randint(0, 12))]
            sets = [tuple(rng.sample(names, size)) for size in sizes]
            for k in range(7):
                got = _first_hitting_set(sets, k)
                assert got == first_hitting_set_by_definition(sets, k), \
                    (sets, k)
                pairs += 1
                found += got is not None
        assert pairs >= 20000
        # both answers are common, so neither side is tested only vacuously
        assert 0.2 < found / pairs < 0.8


def packed_first_hitting_set(sets, k):
    """The packing-bounded search as it was before it branched with
    exclusion: the reference for the excluding one, which must return the
    same set."""
    owner = {}
    packed = 0
    for s in sets:
        if s and owner.keys().isdisjoint(s):
            owner.update(dict.fromkeys(s, packed))
            packed += 1
    hits = [0] * packed
    missed = packed
    chosen = set()
    disjoint = chosen.isdisjoint
    path = []
    start = 0
    while True:
        j = -1
        if missed <= k - len(path):
            for i in range(start, len(sets)):
                if disjoint(sets[i]):
                    break
            else:
                return frozenset(chosen)
            if len(path) < k and sets[i]:
                j = 0
        if j < 0:
            while path:
                i, j = path.pop()
                e = sets[i][j]
                chosen.remove(e)
                p = owner.get(e)
                if p is not None:
                    hits[p] -= 1
                    if not hits[p]:
                        missed += 1
                j += 1
                if j < len(sets[i]):
                    break
            else:
                return None
        e = sets[i][j]
        chosen.add(e)
        p = owner.get(e)
        if p is not None:
            hits[p] += 1
            if hits[p] == 1:
                missed -= 1
        path.append((i, j))
        start = i + 1


def horn_order(sets):
    """Singletons first, then the other sets, each group in name order."""
    return sorted(sets, key=lambda s: (len(s) != 1, s))


def bipartite_with_triangles(left, right, triangles):
    """K_{left,right} plus vertex-disjoint triangles on shuffled names, as
    a conflict graph with name-sorted edges in sorted order."""
    names = [f"v{i:04d}" for i in range(left + right + 3 * triangles)]
    random.Random(0).shuffle(names)
    lhs, rhs = names[:left], names[left:left + right]
    tri = names[left + right:]
    edges = {tuple(sorted((u, v))) for u in lhs for v in rhs}
    for t in range(0, len(tri), 3):
        a, b, c = tri[t:t + 3]
        edges |= {tuple(sorted(e)) for e in ((a, b), (b, c), (a, c))}
    return ConflictGraph(tuple(sorted(edges)))


def centres_with_pairs(centres, pairs, wide):
    """A 3-set {centre, a, b} for every centre and every one of the
    disjoint pairs, plus every 3-subset of each 5-variable wide clause, on
    shuffled names."""
    names = [f"v{i:04d}" for i in range(centres + 2 * pairs + 5 * wide)]
    random.Random(0).shuffle(names)
    cs, rest = names[:centres], names[centres:]
    sets = {tuple(sorted((c, rest[2 * j], rest[2 * j + 1])))
            for c in cs for j in range(pairs)}
    for w in range(2 * pairs, len(rest), 5):
        sets |= {tuple(sorted(t))
                 for t in itertools.combinations(rest[w:w + 5], 3)}
    return HittingFamily(tuple(sorted(sets)))


class TestExclusion:
    def test_same_set_as_the_packed_search_on_random_families(self):
        rng = random.Random(24)
        pairs = found = 0
        for _ in range(1500):
            names = [f"v{i}" for i in range(rng.randint(1, 9))]
            sizes = [rng.randint(0, min(3, len(names)))
                     for _ in range(rng.randint(0, 12))]
            family = [tuple(sorted(rng.sample(names, size)))
                      for size in sizes]
            for sets in (horn_order(family), sorted(family)):
                for k in range(7):
                    got = _first_hitting_set(sets, k)
                    assert got == packed_first_hitting_set(sets, k), (sets, k)
                    pairs += 1
                    found += got is not None
        assert pairs >= 20000
        assert 0.2 < found / pairs < 0.8

    def test_same_set_as_the_packed_search_on_random_formulas(self):
        rng = random.Random(25)
        op_sets = [set(ops) for size in range(4)
                   for ops in itertools.combinations(
                       (Mod.STAR, Mod.FUT, Mod.PAST), size)]
        assert len(op_sets) == 8
        pairs = found = 0
        for i in range(1600):
            phi = random_formula(rng, rng.randint(1, 8), rng.randint(1, 10),
                                 5, op_sets[i % len(op_sets)])
            core = remove_tautologies(phi)
            for sets in (build_horn_conflict_graph(core).edges,
                         build_krom_hitting_family(core).sets):
                for k in range(7):
                    got = _first_hitting_set(sets, k)
                    assert got == packed_first_hitting_set(sets, k), (phi, k)
                    pairs += 1
                    found += got is not None
        assert pairs >= 20000
        assert 0.2 < found / pairs < 0.8

    def test_bipartite_cover_is_fast(self):
        # the minimum cover is the 14 left vertices plus two per triangle;
        # without exclusion the search re-proves every left vertex's subtree
        g = bipartite_with_triangles(14, 120, 6)
        t0 = time.perf_counter()
        assert vertex_cover(g, 25) is None
        t1 = time.perf_counter()
        got = vertex_cover(g, 26)
        t2 = time.perf_counter()
        assert got is not None and len(got) == 26 and covers(g, got)
        assert t1 - t0 < 1.0 and t2 - t1 < 1.0

    def test_centre_hitting_set_is_fast(self):
        # the six centres, plus three variables of each wide clause
        fam = centres_with_pairs(6, 40, 2)
        t0 = time.perf_counter()
        assert hitting_set_3(fam, 11) is None
        t1 = time.perf_counter()
        got = hitting_set_3(fam, 12)
        t2 = time.perf_counter()
        assert got is not None and len(got) == 12 and hits(fam, got)
        assert t1 - t0 < 1.0 and t2 - t1 < 1.0

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=400)
    @given(st.lists(st.lists(st.sampled_from("abcdefg"), max_size=3)
                    .map(tuple), max_size=10),
           st.integers(0, 5))
    def test_first_hitting_set_by_definition(self, sets, k):
        assert _first_hitting_set(sets, k) == \
            first_hitting_set_by_definition(sets, k)


def frozenset_path_edges(core):
    """The conflict graph as a frozenset family, in the search order a
    wrapper sorted it into: self-loops, then edges, each in name order."""
    edges = set()
    for c in core.clauses:
        pos = [l for l in c if l.positive]
        for a, b in itertools.combinations(pos, 2):
            edges.add(frozenset((a.var, b.var)))
    loops = sorted(tuple(e) for e in edges if len(e) == 1)
    pairs = sorted(tuple(sorted(e)) for e in edges if len(e) == 2)
    return loops + pairs


def frozenset_path_sets(core):
    """The 3-selection family as frozensets, ordered and then turned into
    name-sorted tuples the same way."""
    sets = set()
    for c in core.clauses:
        for triple in itertools.combinations(c.literals, 3):
            sets.add(frozenset(l.var for l in triple))
    ordered = sorted(sets, key=lambda s: tuple(sorted(s)))
    return [tuple(sorted(s)) for s in ordered]


class TestSetForm:
    def test_builders_fix_the_search_order(self):
        phi = formula([Clause([Lit("e", positive=False),
                               Lit("d", positive=False), Lit("a")]),
                       Clause([Lit("d"), Lit("a", positive=False), Lit("c")]),
                       Clause([Lit("b", Mod.FUT), Lit("b"), Lit("a")])],
                      ops={Mod.STAR, Mod.FUT})
        # the self-loop on b precedes (a, b), which sorts first by name
        assert build_horn_conflict_graph(phi).edges == (
            ("b",), ("a", "b"), ("c", "d"))
        assert build_krom_hitting_family(phi).sets == (
            ("a", "b"), ("a", "c", "d"), ("a", "d", "e"))

    def test_same_sets_as_the_frozenset_path(self):
        rng = random.Random(9)
        op_sets = [set(ops) for size in range(4)
                   for ops in itertools.combinations(
                       (Mod.STAR, Mod.FUT, Mod.PAST), size)]
        pairs = found = dropped = 0
        for i in range(3000):
            phi = random_formula(rng, rng.randint(1, 8), rng.randint(1, 10),
                                 5, op_sets[i % len(op_sets)],
                                 seed_tautologies=rng.random() < 0.4)
            core = remove_tautologies(phi)
            dropped += len(core.clauses) < len(phi.clauses)
            graph = build_horn_conflict_graph(core)
            family = build_krom_hitting_family(core)
            edges = frozenset_path_edges(core)
            sets = frozenset_path_sets(core)
            for k in range(7):
                want_horn = _first_hitting_set(edges, k)
                want_krom = _first_hitting_set(sets, k)
                assert vertex_cover(graph, k) == want_horn, (phi, k)
                assert detect_horn_backdoor(phi, k) == want_horn, (phi, k)
                assert hitting_set_3(family, k) == want_krom, (phi, k)
                assert detect_krom_backdoor(phi, k) == want_krom, (phi, k)
                pairs += 1
                found += (want_horn is not None) + (want_krom is not None)
        assert pairs >= 20000
        # tautologies were removed, and both answers are common
        assert dropped > 100
        assert 0.2 < found / (2 * pairs) < 0.8


def verify_backdoor_reference(phi, backdoor, target):
    """Direct restatement of the definition: enumerate every consistent
    assignment, reduce each clause, and classify the survivors.  Exponential;
    used to cross-check ``verify_backdoor``.

    Clause reducts are classified individually, without the formula-level
    collapse to the FALSE marker: a surviving over-wide clause disqualifies
    the assignment even when another clause was emptied alongside it.
    """
    if target not in (HORN, KROM):
        raise ValueError(f"unknown target class: {target}")
    check = clause_is_horn if target == HORN else clause_is_krom
    for theta in consistent_assignments(backdoor, phi.operators):
        for c in phi.clauses:
            kept = []
            satisfied = False
            for lit in c:
                val = theta.values.get((lit.var, lit.mod))
                if val is None:
                    kept.append(lit)
                elif val == lit.positive:
                    satisfied = True
                    break
            if not satisfied and not check(Clause(kept)):
                return False
    return True


def verify_every_clause(phi, backdoor, target):
    """``verify_backdoor`` as it was before it skipped the clauses already
    in the target class: every clause goes through the backdoor test."""
    back = set(backdoor)
    mods = assignment_modalities(phi.operators)
    choices = _local_choices(mods)
    mod_pos = {m: i for i, m in enumerate(mods)}
    for c in phi.clauses:
        by_var = {}
        rest_pos = rest_total = 0
        for lit in c:
            if lit.var in back and lit.mod in mod_pos:
                by_var.setdefault(lit.var, []).append(lit)
            else:
                rest_total += 1
                rest_pos += 1 if lit.positive else 0
        if any(not any(all(bits[mod_pos[l.mod]] != l.positive for l in lits)
                       for bits in choices)
               for lits in by_var.values()):
            continue
        if not (rest_pos <= 1 if target == HORN else rest_total <= 2):
            return False
    return True


class TestVerify:
    def test_empty_set_fails_on_non_horn_clause(self):
        phi = formula([Clause([Lit("x"), Lit("y")])])
        assert not verify_backdoor(phi, (), HORN)

    def test_singleton_backdoors(self):
        phi = formula([Clause([Lit("x"), Lit("y")])])
        assert verify_backdoor(phi, ("x",), HORN)
        assert verify_backdoor(phi, ("y",), HORN)

    def test_unknown_variable_rejected(self):
        phi = formula([Clause([Lit("x")])])
        with pytest.raises(ValueError):
            verify_backdoor(phi, ("nope",), HORN)

    def test_unknown_target_rejected(self):
        phi = formula([Clause([Lit("x")])])
        with pytest.raises(ValueError):
            verify_backdoor(phi, (), "affine")
        # formulas that leave no clause to classify reject it as well
        for clauses in ([], [Clause([Lit("x", Mod.STAR, False), Lit("x")])]):
            phi = formula(clauses)
            for check in (verify_backdoor, verify_backdoor_reference):
                with pytest.raises(ValueError):
                    check(phi, phi.variables, "hron")

    def test_fast_path_matches_reference(self):
        rng = random.Random(5)
        op_choices = [{Mod.STAR}, {Mod.FUT, Mod.PAST},
                      {Mod.PAST, Mod.FUT, Mod.STAR}, {Mod.FUT}]
        for _ in range(250):
            phi = random_formula(rng, rng.randint(1, 4), rng.randint(1, 4),
                                 4, rng.choice(op_choices))
            names = sorted(phi.variables)
            for size in range(0, min(3, len(names)) + 1):
                for chosen in itertools.combinations(names, size):
                    for target in (HORN, KROM):
                        assert (verify_backdoor(phi, chosen, target)
                                == verify_backdoor_reference(phi, chosen, target))

    def test_skipping_clauses_in_the_class_changes_no_verdict(self):
        # random formulas under all eight operator sets, some with seeded
        # tautologies or a literal under an undeclared operator, against the
        # reference and against the loop without the skip
        rng = random.Random(18)
        op_sets = [set(ops) for size in range(4)
                   for ops in itertools.combinations(
                       (Mod.STAR, Mod.FUT, Mod.PAST), size)]
        cases = holds = 0
        for i in range(1200):
            ops = op_sets[i % len(op_sets)]
            phi = random_formula(rng, rng.randint(1, 5), rng.randint(1, 8),
                                 5, ops, seed_tautologies=rng.random() < 0.3)
            stray = [m for m in (Mod.PAST, Mod.FUT, Mod.STAR) if m not in ops]
            if stray and rng.random() < 0.3:
                clauses = list(phi.clauses)
                j = rng.randrange(len(clauses))
                clauses[j] = Clause([*clauses[j], Lit(
                    rng.choice(phi.variables), rng.choice(stray),
                    rng.random() < 0.5)])
                phi = formula(clauses, ops, phi.initial)
            for target in (HORN, KROM):
                for _ in range(5):
                    chosen = rng.sample(phi.variables, rng.randint(
                        0, min(2, len(phi.variables))))
                    want = verify_backdoor_reference(phi, chosen, target)
                    assert verify_backdoor(phi, chosen, target) == want, (
                        phi, chosen, target)
                    assert verify_every_clause(phi, chosen, target) == want
                    cases += 1
                    holds += want
        assert cases == 12000
        assert 0.2 < holds / cases < 0.8


class TestDetect:
    def test_horn_zero_budget_on_horn_formula(self):
        phi = formula([Clause([Lit("x", positive=False), Lit("y")])])
        assert detect_horn_backdoor(phi, 0) == frozenset()

    def test_horn_needs_budget(self):
        phi = formula([Clause([Lit("x"), Lit("y")])])
        assert detect_horn_backdoor(phi, 0) is None
        assert detect_horn_backdoor(phi, 1) in (frozenset({"x"}),
                                                frozenset({"y"}))

    def test_krom_zero_budget(self):
        phi = formula([Clause([Lit("x"), Lit("y"), Lit("z")])])
        assert detect_krom_backdoor(phi, 0) is None
        got = detect_krom_backdoor(phi, 1)
        assert got is not None and len(got) == 1

    def test_detected_sets_verify_against_the_core(self):
        rng = random.Random(6)
        for _ in range(150):
            phi = random_formula(rng, rng.randint(1, 5), rng.randint(1, 5),
                                 4, {Mod.STAR, Mod.FUT, Mod.PAST},
                                 seed_tautologies=rng.random() < 0.4)
            core = remove_tautologies(phi)
            for k in range(0, 4):
                for target, detect in ((HORN, detect_horn_backdoor),
                                       (KROM, detect_krom_backdoor)):
                    got = detect(phi, k)
                    if got is not None:
                        assert len(got) <= k
                        assert verify_backdoor(core, got, target)


class TestMinimalBruteforce:
    def test_horn_formula_needs_nothing(self):
        phi = formula([Clause([Lit("x", positive=False), Lit("y")])])
        assert minimal_backdoor_bruteforce(phi, HORN) == frozenset()

    def test_lexicographic_tie_break(self):
        phi = formula([Clause([Lit("x"), Lit("y")])])
        assert minimal_backdoor_bruteforce(phi, HORN) == frozenset({"x"})

    def test_budget(self):
        phi = formula([Clause([Lit(f"v{i:02d}")]) for i in range(13)])
        with pytest.raises(ValueError):
            minimal_backdoor_bruteforce(phi, HORN)

    def test_detect_agrees_with_bruteforce_size(self):
        rng = random.Random(7)
        for ops in ({Mod.STAR}, {Mod.FUT}, {Mod.PAST},
                    {Mod.FUT, Mod.PAST, Mod.STAR}):
            for _ in range(80):
                phi = random_formula(rng, rng.randint(1, 5),
                                     rng.randint(1, 5), 4, ops)
                core = remove_tautologies(phi)
                for target, detect in ((HORN, detect_horn_backdoor),
                                       (KROM, detect_krom_backdoor)):
                    best = len(minimal_backdoor_bruteforce(core, target))
                    for k in range(0, best + 2):
                        assert (detect(phi, k) is not None) == (k >= best)


def test_committed_answers_replay():
    # data/detect_corpus.txt, written by data/make_detect_corpus.py, holds
    # the set or NONE each detector returns at k = min - 1 and k = min on
    # 300 random formulas under all eight operator sets, so a change to any
    # returned set shows here
    corpus = Path(__file__).parent / "data" / "detect_corpus.txt"
    entries = [json.loads(line) for line in corpus.read_text().splitlines()]
    assert len(entries) == 300
    for entry in entries:
        phi = parse_snf(entry["formula"])
        for target, detect in ((HORN, detect_horn_backdoor),
                               (KROM, detect_krom_backdoor)):
            for k, want in entry[target]:
                found = detect(phi, k)
                assert (None if found is None else sorted(found)) == want, (
                    entry["name"], target, k)
