"""Both oracle encodings hand the clause search the same clause lists, in the
same order, as the reference builders below, which ground every literal
through per-row and per-cell helpers; and both refuse a formula whose
encoding would exceed ``ENCODING_CLAUSE_LIMIT`` clauses, counted exactly.
The window encoding gives each variable that its clauses hold constant
across time one atom, and keeps only the directions of each other modal
atom's definition that the atom's signs in the formula need; its witnesses
equal those of the unfolded full definitions."""

import itertools
import random
import tracemalloc

import pytest

from ltlbd import _kernels, oracle
from ltlbd.fileio import format_model_table
from ltlbd.formula import TEMPORAL_MODS, Clause, Lit, Mod, SnfFormula
from ltlbd.gen import random_formula
from ltlbd.interp import FiniteWindowInterpretation
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


def frozen_variables(phi):
    """The variables that ``~v | [F]v`` and ``~v | [P]v``, or ``~v | [*]v``,
    hold constant across every world."""
    present = set(phi.clauses)

    def gadget(v, mod):
        return Clause([Lit(v, Mod.NONE, False), Lit(v, mod)]) in present

    return {v for v in phi.variables if gadget(v, Mod.STAR)
            or (gadget(v, Mod.FUT) and gadget(v, Mod.PAST))}


def reference_window_clauses(phi, width, full=False):
    """The window encoding, one ``row``/``cell`` call per world.

    Each frozen variable has one atom, its left-edge cell, which each of its
    cells and modal literals reads, and its modal pairs get no atoms.  The
    atoms are the left edge over every variable, then rows 1.. over the
    others, then the modal atoms.  A modal atom that occurs positively
    implies its meaning, and one that occurs negatively is implied by it:
    an always-atom implies each row's cell, and the conjunction of the cells
    implies it; a future (past) atom at world w implies v at w + 1 (w - 1)
    and the atom there, and those two imply it.  Each grounding keeps the
    first of its repeated literals, a grounding that holds an atom in both
    signs is dropped, and a clause whose groundings are all equal is kept
    once.  ``full`` folds no variable and keeps both directions for every
    atom."""
    variables = sorted(phi.variables)
    nv = len(variables)
    n_rows = width + 3
    frozen = set() if full else frozen_variables(phi)
    thawed = [v for v in variables if v not in frozen]
    col = {v: i for i, v in enumerate(variables)}
    thawed_col = {v: i for i, v in enumerate(thawed)}
    worlds = range(-2, width + 3)

    def row(world):
        return min(max(world + 1, 0), n_rows - 1)

    def cell_in(v, r):
        if v in frozen or r == 0:
            return col[v]
        return nv + (r - 1) * len(thawed) + thawed_col[v]

    def cell(v, world):
        return cell_in(v, row(world))

    base, n_atoms = {}, nv + (n_rows - 1) * len(thawed)
    for c in phi.clauses:
        for lit in c:
            key = lit.mod, lit.var
            if (lit.mod is not Mod.NONE and lit.var not in frozen
                    and key not in base):
                base[key] = n_atoms
                n_atoms += 1 if lit.mod is Mod.STAR else len(worlds)
    positive = {(l.mod, l.var) for c in phi.clauses for l in c if l.positive}
    negative = {(l.mod, l.var) for c in phi.clauses for l in c
                if not l.positive}

    def code(lit, w):
        if lit.mod is Mod.NONE or lit.var in frozen:
            a = cell(lit.var, w) + 1
        elif lit.mod is Mod.STAR:
            a = base[Mod.STAR, lit.var] + 1
        else:
            a = base[lit.mod, lit.var] + w + 3
        return a if lit.positive else -a

    clauses = []
    for c in phi.clauses:
        groundings = [g for g in (list(dict.fromkeys(code(lit, w) for lit in c))
                                  for w in worlds)
                      if not any(-a in g for a in g)]
        if groundings and all(g == groundings[0] for g in groundings):
            groundings = groundings[:1]
        clauses.extend(groundings)
    clauses.extend([cell(v, 0) + 1] for v in phi.initial)
    for (mod, v), a in base.items():
        implies = full or (mod, v) in positive
        implied = full or (mod, v) in negative
        if mod is Mod.STAR:
            cells = [cell_in(v, r) + 1 for r in range(n_rows)]
            if implies:
                clauses.extend([-a - 1, x] for x in cells)
            if implied:
                clauses.append([a + 1] + [-x for x in cells])
            continue
        step = 1 if mod is Mod.FUT else -1

        def atom(w):
            return a + w + 3

        def nxt(w):
            return cell(v, w + step) + 1

        chained = [w for w in worlds if w + step in worlds]
        end = width + 2 if step > 0 else -2
        if implies:
            clauses.extend([-atom(w), nxt(w)] for w in worlds)
            clauses.extend([-atom(w), atom(w + step)] for w in chained)
        if implied:
            clauses.extend([atom(w), -nxt(w), -atom(w + step)]
                           for w in chained)
            clauses.append([atom(end), -nxt(end)])
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
    rng, planting = random.Random(42), random.Random(45)
    for ops in OPERATOR_SETS:
        for _ in range(12):
            phi = random_formula(rng, rng.randint(1, 4), rng.randint(1, 5),
                                 3, ops)
            if rng.random() < 0.2:  # an empty clause
                phi = SnfFormula(phi.operators, phi.initial,
                                 phi.clauses + (Clause([]),))
            for psi in (phi, plant_gadgets(planting, phi)):
                for width in range(5):
                    assert_handed(handed, reference_window_clauses(psi, width),
                                  lambda: window_sat_oracle(psi, width),
                                  monkeypatch)


def test_a_reduce_3col_encoding_folds_the_colour_variables(handed,
                                                           monkeypatch):
    # the benchmark's fp-horn graphs have 10 vertices and 16 edges, solved at
    # width 12, and the encoding's size depends on nothing else: the 30
    # colour variables v<i>_<c> fold, each clause over them alone is kept
    # once, and their freezing gadgets are dropped as valid
    pairs = itertools.combinations(range(1, 11), 2)
    graph = Graph(10, frozenset(itertools.islice(pairs, 16)))
    phi, _ = threecol_to_fp_horn(graph)
    assert frozen_variables(phi) == {f"v{i}_{c}" for i in range(1, 11)
                                     for c in (1, 2, 3)}
    expected = reference_window_clauses(phi, 12)
    assert (expected[0], len(expected[1])) == (595, 2732)
    assert_handed(handed, expected, lambda: window_sat_oracle(phi, 12),
                  monkeypatch)
    got = window_sat_oracle(phi, 12)
    assert format_model_table(got) == full_window_table(phi, 12)


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


def full_window_table(phi, width):
    """The model table of the first model of the window encoding with the
    full definition of every modal atom, or None."""
    n_atoms, clauses = reference_window_clauses(phi, width, full=True)
    found, values = _kernels.search_solve(n_atoms, clauses)
    if not found:
        return None
    variables = sorted(phi.variables)
    rows = [{v: bool(values[r * len(variables) + i])
             for i, v in enumerate(variables)} for r in range(width + 3)]
    return format_model_table(FiniteWindowInterpretation(
        rows[0], tuple(rows[1:-1]), 0, rows[-1]))


def test_window_witnesses_equal_the_full_definitions():
    # every cell atom comes before every modal atom, so the witness is the
    # first cell assignment that extends to a model, with or without the
    # directions that the atoms' signs do not need
    rng = random.Random(44)
    none = 0
    for k in range(3000):
        phi = random_formula(rng, rng.randint(1, 4), rng.randint(1, 6), 3,
                             OPERATOR_SETS[k % 8])
        for width in (0, 1, 3):
            got = window_sat_oracle(phi, width)
            table = None if got is None else format_model_table(got)
            assert table == full_window_table(phi, width)
            none += got is None
    assert 0 < none < 9000


def plant_gadgets(rng, phi):
    """``phi`` with gadgets that freeze some of its variables, as far as its
    operators allow: ``~v | [F]v`` and ``~v | [P]v``, ``~v | [*]v``, or one
    half alone, which freezes nothing; some of them also get a clause with
    ``~[F]v`` or ``~[P]v`` and some an initial fact.  The clauses are
    shuffled, so the gadgets come before or after the other occurrences."""
    halves = [m for m in (Mod.FUT, Mod.PAST) if m in phi.operators]
    forms = [[m] for m in halves]
    if len(halves) == 2:
        forms.append(halves)
    if Mod.STAR in phi.operators:
        forms.append([Mod.STAR])
    clauses, initial = list(phi.clauses), set(phi.initial)
    names = sorted(phi.variables)
    for v in names:
        if not forms or rng.random() < 0.4:
            continue
        for mod in rng.choice(forms):
            clauses.append(Clause([Lit(v, Mod.NONE, False), Lit(v, mod)]))
        if halves and rng.random() < 0.5:
            clauses.append(Clause([Lit(v, rng.choice(halves), False),
                                   Lit(rng.choice(names), Mod.NONE,
                                       rng.random() < 0.5)]))
        if rng.random() < 0.3:
            initial.add(v)
    rng.shuffle(clauses)
    return SnfFormula(phi.operators, tuple(initial), tuple(clauses))


def test_folded_witnesses_equal_the_unfolded_full_definitions(handed):
    # in every model a frozen variable holds everywhere or nowhere, and two
    # cell assignments that first differ at a folded cell already differ at
    # its left-edge cell, so folding keeps every witness and every None;
    # a literal that folding makes repeat (x | [F]x with x frozen) is
    # handed over once, so no clause repeats a literal
    rng = random.Random(46)
    n_clauses = repeated = 0
    seen = dict.fromkeys(("both halves", "always", "one half", "negated",
                          "initial", "none"), 0)
    for k in range(1600):
        ops = OPERATOR_SETS[k % 8]
        phi = plant_gadgets(rng, random_formula(
            rng, rng.randint(1, 4), rng.randint(1, 6), 3, ops))
        frozen = frozen_variables(phi)
        gadgets = {(v, m) for v in phi.variables for m in TEMPORAL_MODS
                   if Clause([Lit(v, Mod.NONE, False), Lit(v, m)])
                   in phi.clauses}
        both = {v for v in frozen if (v, Mod.FUT) in gadgets
                and (v, Mod.PAST) in gadgets}
        one_half = any(v not in frozen for v, _ in gadgets)
        negated = any(l.var in frozen and not l.positive
                      and l.mod in (Mod.FUT, Mod.PAST)
                      for c in phi.clauses for l in c)
        for width in (0, 1, 3):
            handed.clear()
            got = window_sat_oracle(phi, width)
            if width == 1:
                for _, clauses in handed:
                    n_clauses += len(clauses)
                    repeated += sum(len(set(c)) < len(c) for c in clauses)
            table = None if got is None else format_model_table(got)
            assert table == full_window_table(phi, width)
            seen["both halves"] += bool(both)
            seen["always"] += bool(frozen - both)
            seen["one half"] += one_half and len(ops) == 1
            seen["negated"] += negated
            seen["initial"] += bool(frozen & set(phi.initial))
            seen["none"] += got is None
    assert min(seen.values()) >= 100, seen
    assert (repeated, n_clauses) == (0, 68130)


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
