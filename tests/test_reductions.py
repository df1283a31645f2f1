import copy
import itertools
import pickle
import random
import tracemalloc

import pytest

from ltlbd.detection import (HORN, KROM, detect_horn_backdoor,
                             detect_krom_backdoor, verify_backdoor)
from ltlbd.fileio import parse_model_table
from ltlbd.formula import Clause, Lit, Mod, SnfFormula
from ltlbd.interp import models
from ltlbd.oracle import star_sat_oracle, window_sat_oracle
from ltlbd.reductions import (FP_HORN, REDUCE_VERTEX_LIMIT, STAR_KROM, Graph,
                              brute_3col, coloring_from_model, is_proper,
                              model_from_coloring, threecol_to_fp_horn,
                              threecol_to_star_krom)
from tables import K4, TRIANGLE, TRIANGLE_HORN_TABLE, TRIANGLE_KROM_TABLE


def random_graph(rng, n):
    pool = list(itertools.combinations(range(1, n + 1), 2))
    return Graph(n, frozenset(e for e in pool if rng.random() < 0.5))


class TestGraph:
    def test_edges_normalised(self):
        g = Graph(4, frozenset({(3, 1), (2, 4)}))
        assert g.sorted_edges() == [(1, 3), (2, 4)]

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 1)}))
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 4)}))

    def test_graph_without_vertices_rejected(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            Graph(0, frozenset())

    def test_brute_3col_refuses_over_10_vertices(self):
        with pytest.raises(ValueError, match="limited to 10 vertices"):
            brute_3col(Graph(11, frozenset()))

    def test_brute_3col(self):
        assert brute_3col(TRIANGLE) == {1: 1, 2: 2, 3: 3}
        assert brute_3col(K4) is None
        assert brute_3col(Graph(3, frozenset())) == {1: 1, 2: 1, 3: 1}

    def test_pickle_and_deepcopy_round_trip(self):
        g = Graph(4, frozenset({(3, 1), (2, 4)}))
        copies = [pickle.loads(pickle.dumps(g, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for got in copies + [copy.deepcopy(g), copy.copy(g)]:
            assert type(got) is Graph
            assert got == g and hash(got) == hash(g) and repr(got) == repr(g)

    def test_fields_refuse_assignment_and_deletion(self):
        g = Graph(4, frozenset({(3, 1)}))
        for name in ("n", "edges", "new"):
            with pytest.raises(AttributeError):
                setattr(g, name, 1)
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert g == Graph(4, frozenset({(1, 3)})) != Graph(5, g.edges)
        assert repr(g) == "Graph(n=4, edges=frozenset({(1, 3)}))"


def all_graphs(max_n):
    """Every graph on 1..n vertices for n up to ``max_n``, as in the
    acceptance criteria 4 (``max_n`` 5) and 5 (``max_n`` 4)."""
    for n in range(1, max_n + 1):
        pool = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pool)):
            yield Graph(n, frozenset(e for i, e in enumerate(pool)
                                     if mask >> i & 1))


@pytest.mark.parametrize("build", [threecol_to_star_krom,
                                   threecol_to_fp_horn])
def test_reductions_emit_canonical_clauses(build):
    # the builders write each clause in canonical order without sorting it;
    # names sort as strings, so vertex 10's variables come before vertex 2's
    rng = random.Random(37)
    graphs = [*all_graphs(5 if build is threecol_to_star_krom else 4),
              *(random_graph(rng, rng.randint(1, 13)) for _ in range(400))]
    for g in graphs:
        phi, _ = build(g)
        for c in phi.clauses:
            assert type(c) is Clause and c == Clause(c), (g, c)
        sorted_again = SnfFormula(phi.operators, phi.initial,
                                  tuple(Clause(c) for c in phi.clauses))
        assert phi == sorted_again
        assert repr(phi) == repr(sorted_again)


@pytest.mark.parametrize("build", [threecol_to_star_krom,
                                   threecol_to_fp_horn])
def test_graph_over_the_vertex_limit_is_refused_before_building(build):
    # the limit is checked first: refusing allocates almost nothing
    graph = Graph(REDUCE_VERTEX_LIMIT + 1, frozenset())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match=f"at most {REDUCE_VERTEX_LIMIT} vertices"):
            build(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("build", [threecol_to_star_krom,
                                   threecol_to_fp_horn])
def test_reductions_equal_a_validated_build(build):
    # both builders skip SnfFormula's validation: their generated names are
    # valid and sorted, so the formula equals a validated rebuild, universe
    # included
    rng = random.Random(20)
    for _ in range(300):
        phi, _ = build(random_graph(rng, rng.randint(1, 8)))
        again = SnfFormula(phi.operators, phi.initial, phi.clauses)
        assert phi == again and phi.variables == again.variables


def star_krom_by_literal(graph):
    """``threecol_to_star_krom``'s formula, each literal built where used."""
    def lit(var, mod=Mod.NONE, positive=True):
        return Lit(var, mod, positive)

    clauses = [Clause([lit(f"v{i}", Mod.STAR, False)])
               for i in range(1, graph.n + 1)]
    for i, j in graph.sorted_edges():
        for suffix, s1, s2 in (("bb", True, True), ("nb", False, True),
                               ("bn", True, False)):
            ev = f"e_{i}_{j}_{suffix}"
            clauses.append(Clause([lit(f"v{i}"), lit(ev, Mod.STAR),
                                   lit("b1", positive=s1),
                                   lit("b2", positive=s2)]))
            clauses.append(Clause([lit(f"v{j}"), lit(ev, Mod.STAR, False),
                                   lit("b1", positive=s1),
                                   lit("b2", positive=s2)]))
    clauses.append(Clause([lit("b1", positive=False),
                           lit("b2", positive=False)]))
    return SnfFormula(frozenset({Mod.STAR}), (), tuple(clauses))


def fp_horn_by_literal(graph):
    """``threecol_to_fp_horn``'s formula, each literal built where used."""
    n = graph.n
    F, P = Mod.FUT, Mod.PAST

    def lit(var, mod=Mod.NONE, positive=True):
        return Lit(var, mod, positive)

    def colours(*signs):
        return Clause([lit(f"c{j}", positive=s)
                       for j, s in zip((1, 2, 3), signs)])

    prime = f"p{n}_prime"
    clauses = [colours(True, True, True), colours(False, False, False),
               colours(True, False, False), colours(False, False, True),
               colours(False, True, False)]
    for i in range(1, n + 1):
        for c in (1, 2, 3):
            clauses.append(Clause([lit(f"v{i}_{c}", positive=False),
                                   lit(f"v{i}_{c}", F)]))
            clauses.append(Clause([lit(f"v{i}_{c}", positive=False),
                                   lit(f"v{i}_{c}", P)]))
    clauses.append(Clause([lit("s", positive=False),
                           lit("p1", positive=False)]))
    clauses.append(Clause([lit("s", positive=False), lit("p1", F)]))
    clauses.append(Clause([lit("s", positive=False), lit("p1", P)]))
    for i in range(1, n):
        clauses.append(Clause([lit(f"p{i}", positive=False),
                               lit(f"p{i}", F, False), lit(f"p{i + 1}", F)]))
        clauses.append(Clause([lit(f"p{i}"), lit(f"p{i + 1}", F, False)]))
    clauses.append(Clause([lit(f"p{n}"), lit(f"p{n}", F, False),
                           lit(prime)]))
    clauses.append(Clause([lit(f"p{n}", positive=False),
                           lit(prime, positive=False)]))
    clauses.append(Clause([lit(f"p{n}", F), lit(prime, positive=False)]))
    clauses.append(Clause([lit(prime, positive=False), lit(f"p{n}", P)]))
    for i in range(2, n + 1):
        clauses.append(Clause([lit(f"p{i}", positive=False),
                               lit(f"p{i}", P, False), lit(f"p{i - 1}", P)]))
    for i in range(1, n + 1):
        for j in (1, 2, 3):
            fp = [lit(f"p{i}", F, False), lit(f"p{i}", P, False)]
            clauses.append(Clause(fp + [lit(f"v{i}_{j}", positive=False),
                                        lit(f"c{j}")]))
            clauses.append(Clause(fp + [lit(f"c{j}", positive=False),
                                        lit(f"v{i}_{j}")]))
    for i, j in graph.sorted_edges():
        for c in (1, 2, 3):
            clauses.append(Clause([lit(f"v{i}_{c}", positive=False),
                                   lit(f"v{j}_{c}", positive=False)]))
    return SnfFormula(frozenset({F, P}), ("s",), tuple(clauses))


@pytest.mark.parametrize("build,reference", [
    (threecol_to_star_krom, star_krom_by_literal),
    (threecol_to_fp_horn, fp_horn_by_literal)], ids=["star-krom", "fp-horn"])
def test_reductions_equal_a_literal_by_literal_build(build, reference):
    # the builders make each repeated literal once; the clauses, their order
    # and the universe are those of a build that makes every literal anew
    rng = random.Random(21)
    for _ in range(300):
        graph = random_graph(rng, rng.randint(1, 9))
        phi, _ = build(graph)
        expected = reference(graph)
        assert phi == expected and phi.variables == expected.variables


class TestKromReduction:
    def test_clause_shape(self):
        phi, backdoor = threecol_to_star_krom(TRIANGLE)
        assert backdoor == ("b1", "b2")
        # one per vertex, six per edge, one colour-exclusion clause
        assert len(phi.clauses) == 3 + 6 * 3 + 1
        assert len(phi.variables) == 2 + 3 + 3 * 3

    def test_backdoor_verifies_for_every_graph(self):
        rng = random.Random(30)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 5))
            phi, backdoor = threecol_to_star_krom(g)
            assert verify_backdoor(phi, backdoor, KROM)
            assert detect_krom_backdoor(phi, 2) is not None

    def test_reducts_without_backdoor_literals_are_binary(self):
        phi, backdoor = threecol_to_star_krom(TRIANGLE)
        for c in phi.clauses:
            rest = [l for l in c if l.var not in backdoor]
            assert len(rest) <= 2

    def test_triangle_satisfiable_k4_not(self):
        sat, _ = threecol_to_star_krom(TRIANGLE)
        assert star_sat_oracle(sat) is not None
        unsat, _ = threecol_to_star_krom(K4)
        assert star_sat_oracle(unsat) is None

    def test_worked_example_table_is_a_model(self):
        phi, _ = threecol_to_star_krom(TRIANGLE)
        table = parse_model_table(TRIANGLE_KROM_TABLE)
        assert models(table, phi)

    def test_construction_reproduces_the_worked_example(self):
        built = model_from_coloring(TRIANGLE, {1: 1, 2: 2, 3: 3}, STAR_KROM)
        table = parse_model_table(TRIANGLE_KROM_TABLE)
        assert built.window == table.window
        assert built.left == table.left and built.right == table.right
        assert built.lo == table.lo and built.start == table.start

    def test_colouring_read_back_from_the_worked_example(self):
        table = parse_model_table(TRIANGLE_KROM_TABLE)
        assert coloring_from_model(TRIANGLE, table, STAR_KROM) == {1: 1, 2: 2, 3: 3}


class TestHornReduction:
    def test_clause_shape_and_backdoor(self):
        phi, backdoor = threecol_to_fp_horn(TRIANGLE)
        assert backdoor == ("c1", "c2", "c3", "p3_prime")
        assert phi.initial == ("s",)
        assert verify_backdoor(phi, backdoor, HORN)
        for c in phi.clauses:
            rest = [l for l in c if l.var not in backdoor]
            assert sum(1 for l in rest if l.positive) <= 1

    def test_detection_finds_a_small_backdoor(self):
        phi, _ = threecol_to_fp_horn(TRIANGLE)
        got = detect_horn_backdoor(phi, 4)
        assert got is not None and len(got) <= 4

    def test_single_vertex_graph_degenerates_cleanly(self):
        phi, backdoor = threecol_to_fp_horn(Graph(1, frozenset()))
        assert backdoor == ("c1", "c2", "c3", "p1_prime")
        assert verify_backdoor(phi, backdoor, HORN)
        assert window_sat_oracle(phi, 3) is not None

    def test_triangle_satisfiable_k4_not(self):
        sat, _ = threecol_to_fp_horn(TRIANGLE)
        assert window_sat_oracle(sat, 5) is not None
        unsat, _ = threecol_to_fp_horn(K4)
        assert window_sat_oracle(unsat, 6) is None

    def test_worked_example_table_is_a_model(self):
        phi, _ = threecol_to_fp_horn(TRIANGLE)
        table = parse_model_table(TRIANGLE_HORN_TABLE)
        assert models(table, phi)

    def test_construction_reproduces_the_worked_example(self):
        built = model_from_coloring(TRIANGLE, {1: 1, 2: 2, 3: 3}, FP_HORN)
        table = parse_model_table(TRIANGLE_HORN_TABLE)
        assert built.window == table.window
        assert built.left == table.left and built.right == table.right
        assert built.lo == table.lo and built.start == table.start

    def test_colouring_read_back_from_the_worked_example(self):
        table = parse_model_table(TRIANGLE_HORN_TABLE)
        assert coloring_from_model(TRIANGLE, table, FP_HORN) == {1: 1, 2: 2, 3: 3}


class TestRoundTrips:
    def test_model_from_coloring_always_models(self):
        rng = random.Random(31)
        done = 0
        while done < 40:
            g = random_graph(rng, rng.randint(1, 5))
            colouring = brute_3col(g)
            if colouring is None:
                continue
            done += 1
            for target in (STAR_KROM, FP_HORN):
                phi, _ = (threecol_to_star_krom(g) if target == STAR_KROM
                          else threecol_to_fp_horn(g))
                m = model_from_coloring(g, colouring, target)
                assert models(m, phi)
                back = coloring_from_model(g, m, target)
                assert is_proper(g, back)

    def test_improper_colouring_rejected(self):
        with pytest.raises(ValueError):
            model_from_coloring(TRIANGLE, {1: 1, 2: 1, 3: 2}, STAR_KROM)

    def test_unknown_target_rejected(self):
        colouring = {1: 1, 2: 2, 3: 3}
        with pytest.raises(ValueError, match="unknown reduction target: x"):
            model_from_coloring(TRIANGLE, colouring, "x")
        m = model_from_coloring(TRIANGLE, colouring, STAR_KROM)
        with pytest.raises(ValueError, match="unknown reduction target: x"):
            coloring_from_model(TRIANGLE, m, "x")

    def test_non_model_rejected(self):
        # corrupting the vertex-1 column leaves no world where it is false
        bad = parse_model_table(TRIANGLE_KROM_TABLE.replace(
            "world 1: 0 0 1 0 0 1 0 0 0 0 1 0 1 1",
            "world 1: 0 0 1 0 0 1 0 0 0 0 1 1 1 1"))
        with pytest.raises(ValueError):
            coloring_from_model(TRIANGLE, bad, STAR_KROM)

    def test_end_to_end_equivalence_small_graphs(self):
        for n in (1, 2, 3):
            pool = list(itertools.combinations(range(1, n + 1), 2))
            for mask in range(1 << len(pool)):
                g = Graph(n, frozenset(e for i, e in enumerate(pool)
                                       if mask >> i & 1))
                colourable = brute_3col(g) is not None
                sk, _ = threecol_to_star_krom(g)
                assert (star_sat_oracle(sk) is not None) == colourable
                fp, _ = threecol_to_fp_horn(g)
                assert (window_sat_oracle(fp, n + 2) is not None) == colourable
