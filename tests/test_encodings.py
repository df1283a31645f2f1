"""Both oracle encodings hand the clause search the same clause lists, in the
same order, as the reference builders below, which ground every literal
through per-row and per-cell helpers; and both refuse a formula whose
encoding would exceed ``ENCODING_CLAUSE_LIMIT`` clauses, counted exactly."""

import itertools
import random
import tracemalloc

import pytest

from ltlbd import _kernels, oracle
from ltlbd.formula import Clause, Lit, Mod, SnfFormula
from ltlbd.gen import random_formula
from ltlbd.oracle import _star_by_encoding, window_sat_oracle
from ltlbd.reductions import Graph, threecol_to_fp_horn, threecol_to_star_krom

LIMIT = oracle.ENCODING_CLAUSE_LIMIT
OPERATOR_SETS = [set(ops) for r in range(4) for ops in
                 itertools.combinations((Mod.PAST, Mod.FUT, Mod.STAR), r)]


def reference_star_clauses(phi):
    """The star encoding, one ``code`` call per literal and row."""
    variables = sorted(phi.variables)
    n = len(variables)
    col = {v: i for i, v in enumerate(variables)}
    rows = range(1, n + 2)

    def code(lit, r):
        a = (r * n if lit.mod is Mod.NONE else 0) + col[lit.var]
        return a + 1 if lit.positive else -a - 1

    clauses = [[code(lit, r) for lit in c] for r in rows for c in phi.clauses]
    clauses.extend([n + col[v] + 1] for v in phi.initial)
    for i in range(n):
        clauses.extend([-i - 1, r * n + i + 1] for r in rows)
        clauses.append([i + 1, -(2 + i) * n - i - 1])
    return n * (n + 2), clauses


def reference_window_clauses(phi, width):
    """The window encoding, one ``row``/``cell`` call per world."""
    variables = sorted(phi.variables)
    nv = len(variables)
    n_rows = width + 3
    col = {v: i for i, v in enumerate(variables)}
    worlds = range(-2, width + 3)

    def row(world):
        return min(max(world + 1, 0), n_rows - 1) * nv

    def cell(v, world):
        return row(world) + col[v]

    base, n_atoms = {}, n_rows * nv
    for c in phi.clauses:
        for lit in c:
            if lit.mod is not Mod.NONE and (lit.mod, lit.var) not in base:
                base[lit.mod, lit.var] = n_atoms
                n_atoms += 1 if lit.mod is Mod.STAR else len(worlds)

    def code(lit, w):
        if lit.mod is Mod.NONE:
            a = cell(lit.var, w) + 1
        elif lit.mod is Mod.STAR:
            a = base[Mod.STAR, lit.var] + 1
        else:
            a = base[lit.mod, lit.var] + w + 3
        return a if lit.positive else -a

    clauses = []
    for c in phi.clauses:
        clauses.extend([code(lit, w) for lit in c] for w in worlds)
    clauses.extend([cell(v, 0) + 1] for v in phi.initial)
    for (mod, v), a in base.items():
        if mod is Mod.STAR:
            cells = [r * nv + col[v] + 1 for r in range(n_rows)]
            clauses.extend([-a - 1, x] for x in cells)
            clauses.append([a + 1] + [-x for x in cells])
            continue
        step = 1 if mod is Mod.FUT else -1
        for w in worlds:
            here, nxt = a + w + 3, cell(v, w + step) + 1
            clauses.append([-here, nxt])
            if w + step in worlds:
                clauses.append([-here, here + step])
                clauses.append([here, -nxt, -(here + step)])
            else:
                clauses.append([here, -nxt])
    return n_atoms, clauses


@pytest.fixture
def handed(monkeypatch):
    """The ``(n_atoms, clauses)`` of every clause search call."""
    calls = []
    real = _kernels.search_solve

    def record(n_atoms, clauses):
        calls.append((n_atoms, clauses))
        return real(n_atoms, clauses)

    monkeypatch.setattr(_kernels, "search_solve", record)
    yield calls


def assert_handed(handed, expected, solve, monkeypatch):
    """``solve()`` hands the search exactly ``expected``, and its clause
    budget is exact: the count passes at the limit and fails one below."""
    handed.clear()
    solve()
    assert handed == [expected]
    clauses = expected[1]
    monkeypatch.setattr(oracle, "ENCODING_CLAUSE_LIMIT", len(clauses) - 1)
    with pytest.raises(ValueError, match="encoding budget exceeded"):
        solve()
    monkeypatch.setattr(oracle, "ENCODING_CLAUSE_LIMIT", len(clauses))
    solve()
    monkeypatch.setattr(oracle, "ENCODING_CLAUSE_LIMIT", LIMIT)


def random_graph(rng, n):
    pool = list(itertools.combinations(range(1, n + 1), 2))
    return Graph(n, frozenset(e for e in pool if rng.random() < 0.5))


def test_reductions_of_random_graphs(handed, monkeypatch):
    rng = random.Random(41)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 6))
        phi, _ = threecol_to_fp_horn(g)
        assert_handed(handed, reference_window_clauses(phi, g.n + 2),
                      lambda: window_sat_oracle(phi, g.n + 2), monkeypatch)
        phi, _ = threecol_to_star_krom(g)
        assert_handed(handed, reference_star_clauses(phi),
                      lambda: _star_by_encoding(phi), monkeypatch)


def test_window_encoding_over_every_operator_set(handed, monkeypatch):
    rng = random.Random(42)
    for ops in OPERATOR_SETS:
        for _ in range(12):
            phi = random_formula(rng, rng.randint(1, 4), rng.randint(1, 5),
                                 3, ops)
            if rng.random() < 0.2:  # an empty clause
                phi = SnfFormula(phi.operators, phi.initial,
                                 phi.clauses + (Clause([]),))
            for width in range(5):
                assert_handed(handed, reference_window_clauses(phi, width),
                              lambda: window_sat_oracle(phi, width),
                              monkeypatch)


def test_star_encoding_of_always_only_formulas(handed, monkeypatch):
    rng = random.Random(43)
    for n in range(13, 21):
        for _ in range(2):
            phi = random_formula(rng, n, rng.randint(n // 2, 2 * n), 3,
                                 {Mod.STAR})
            names = tuple(f"x{i + 1}" for i in range(n))
            clauses = phi.clauses
            if rng.random() < 0.3:  # an empty clause
                clauses += (Clause([]),)
            phi = SnfFormula(phi.operators, phi.initial, clauses,
                             variables=names)
            assert_handed(handed, reference_star_clauses(phi),
                          lambda: _star_by_encoding(phi), monkeypatch)


def refused_peak(solve):
    """Peak bytes allocated by ``solve()``, which must refuse its input."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="encoding budget exceeded"):
            solve()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_a_large_grounding_is_refused_before_building():
    # 300 copies of one clause over a 4000-world window would ground 1.2M
    # clauses; the window oracle refuses from the counts alone
    clause = Clause([Lit("x"), Lit("x", Mod.FUT), Lit("x", Mod.PAST, False)])
    phi = SnfFormula(frozenset({Mod.FUT, Mod.PAST}), (), (clause,) * 300)
    assert refused_peak(lambda: window_sat_oracle(phi, 4000)) < 1_000_000
    # 64 always-only variables and 3100 clauses ground 65 rows each
    names = tuple(f"w{i:02d}" for i in range(64))
    pairs = itertools.product(itertools.combinations(names, 2), (True, False))
    clauses = tuple(Clause([Lit(u), Lit(v, positive=sign)])
                    for (u, v), sign in itertools.islice(pairs, 3100))
    phi = SnfFormula(frozenset({Mod.STAR}), (), clauses, variables=names)
    assert refused_peak(lambda: oracle.star_sat_oracle(phi)) < 1_000_000
