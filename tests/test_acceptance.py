"""End-to-end acceptance suite.

Each test covers one exit criterion, checks it exactly, and prints a single
verdict line.  Each criterion also asserts its stated time target.
"""

import itertools
import random
import time
from contextlib import contextmanager

from ltlbd.cli import main as cli_main
from ltlbd.detection import (HORN, KROM, build_horn_conflict_graph,
                             build_krom_hitting_family, detect_horn_backdoor,
                             detect_krom_backdoor,
                             minimal_backdoor_bruteforce, verify_backdoor)
from ltlbd.evaluation import (candidate_encodings, encoding_size_bound,
                              evaluate_horn_star)
from ltlbd.fileio import format_model_table, format_snf, parse_model_table
from ltlbd.formula import (Clause, Lit, Mod, SnfFormula,
                           consistent_assignments, remove_tautologies)
from ltlbd.gen import planted_instance, random_formula
from ltlbd.interp import models
from ltlbd.oracle import star_sat_oracle, window_sat_oracle
from ltlbd.propsat import PropCnf, brute_sat, horn_sat, plain_atom, two_sat
from ltlbd.reductions import (Graph, brute_3col, threecol_to_fp_horn,
                              threecol_to_star_krom)
from tables import (TRIANGLE, TRIANGLE_HORN_TABLE, TRIANGLE_KROM_TABLE,
                    covers, hits)


@contextmanager
def criterion(name: str, limit: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < limit else "FAIL"
    print(f"acceptance {name}: {verdict} ({elapsed:.1f}s, target {limit:.0f}s)")
    assert elapsed < limit, f"{name} exceeded {limit}s target"


def clause_pool(variables, mods, max_len):
    """Every clause over distinct (variable, modality) slots up to max_len."""
    slots = [(v, m) for v in variables for m in mods]
    out = []
    for size in range(1, max_len + 1):
        for combo in itertools.combinations(slots, size):
            for signs in itertools.product((False, True), repeat=size):
                out.append(Clause([Lit(v, m, s)
                                   for (v, m), s in zip(combo, signs)]))
    return out


def subsets_up_to(names, k):
    for size in range(0, min(k, len(names)) + 1):
        yield from itertools.combinations(names, size)


def check_detection_equivalence(phi):
    core = remove_tautologies(phi)
    graph = build_horn_conflict_graph(core)
    family = build_krom_hitting_family(core)
    for chosen in subsets_up_to(sorted(core.variables), 3):
        assert covers(graph, chosen) == verify_backdoor(core, chosen, HORN)
        assert hits(family, chosen) == verify_backdoor(core, chosen, KROM)


def test_criterion_1_detection_backdoor_equivalence():
    """Covers of the conflict graph and hitting sets of the 3-family are
    exactly the strong backdoors, exhaustively at small scale and on 500
    seeded random formulas."""
    with criterion("1 detection equivalence", 60.0):
        star_mods = (Mod.NONE, Mod.STAR)
        # grid stratum: single clauses up to width 4 over up to 4 variables
        for clause in clause_pool("abcd", star_mods, 4):
            check_detection_equivalence(
                SnfFormula(frozenset({Mod.STAR}), (), (clause,)))
        # grid stratum: clause pairs over two variables
        pool = clause_pool("ab", star_mods, 4)
        for i, j in itertools.combinations(range(len(pool)), 2):
            check_detection_equivalence(
                SnfFormula(frozenset({Mod.STAR}), (), (pool[i], pool[j])))
        # grid stratum: single clauses with the full operator alphabet
        all_ops = frozenset({Mod.PAST, Mod.FUT, Mod.STAR})
        for clause in clause_pool("abc", tuple(Mod), 3):
            check_detection_equivalence(SnfFormula(all_ops, (), (clause,)))
        # seeded random formulas over up to 8 variables
        rng = random.Random(1001)
        op_choices = [{Mod.STAR}, {Mod.FUT, Mod.PAST},
                      {Mod.PAST, Mod.FUT, Mod.STAR}]
        for _ in range(500):
            phi = random_formula(rng, rng.randint(2, 8), rng.randint(1, 8),
                                 4, rng.choice(op_choices),
                                 seed_tautologies=rng.random() < 0.3)
            check_detection_equivalence(phi)


def test_criterion_2_detection_optimality():
    """The bounded search succeeds exactly when the budget reaches the
    brute-force minimal backdoor size."""
    with criterion("2 detection optimality", 30.0):
        rng = random.Random(1002)
        op_choices = [{Mod.STAR}, {Mod.FUT, Mod.PAST},
                      {Mod.PAST, Mod.FUT, Mod.STAR}]
        for _ in range(300):
            phi = random_formula(rng, rng.randint(2, 8), rng.randint(1, 8),
                                 4, rng.choice(op_choices))
            core = remove_tautologies(phi)
            for target, detect in ((HORN, detect_horn_backdoor),
                                   (KROM, detect_krom_backdoor)):
                best = len(minimal_backdoor_bruteforce(core, target))
                for k in range(0, best + 2):
                    got = detect(phi, k)
                    assert (got is not None) == (k >= best)
                    if got is not None:
                        assert len(got) <= k
                        assert verify_backdoor(core, got, target)


def _check_certificate(phi, backdoor, result, tmp_path, index):
    assert models(result.interpretation, phi)
    formula_path = tmp_path / f"inst{index}.snf"
    model_path = tmp_path / f"inst{index}.model"
    formula_path.write_text(format_snf(phi), encoding="utf-8")
    model_path.write_text(format_model_table(result.interpretation),
                          encoding="utf-8")
    assert cli_main(["check-model", str(formula_path), str(model_path)]) == 0
    rest = set(phi.variables) - set(backdoor)
    for theta in result.theta_set.members:
        agreeing = [m for m in result.assignment_set.members
                    if all(m[v] == theta[v] for v in theta)]
        assert len(agreeing) <= len(rest) + 1


def test_criterion_3_evaluation_matches_oracle(tmp_path, capsys):
    """Backdoor evaluation agrees with the exact oracle; every satisfiable
    certificate passes the model checker, block sizes stay within the
    bounded-witness limit, and every encoding respects the closed-form
    clause bound."""
    with criterion("3 evaluation correctness", 120.0):
        rng = random.Random(1003)
        # 200 seeded planted instances, up to 6 variables, backdoors <= 2
        for seed in range(200):
            n_vars = rng.randint(2, 6)
            phi, backdoor = planted_instance(
                seed, n_vars, rng.randint(1, 8), HORN,
                rng.randint(0, 2), {Mod.STAR})
            core = remove_tautologies(phi)
            bound = encoding_size_bound(core, backdoor)
            result = evaluate_horn_star(phi, backdoor)
            tried = itertools.islice(candidate_encodings(phi, backdoor),
                                     result.tried)
            assert max(len(cnf.clauses) for _, cnf in tried) <= bound
            expected = star_sat_oracle(phi) is not None
            assert result.satisfiable == expected
            if result.satisfiable:
                _check_certificate(phi, backdoor, result, tmp_path, seed)
        # exhaustive small instances, every valid Horn backdoor
        star_mods = (Mod.NONE, Mod.STAR)
        small = []
        pool2 = clause_pool("ab", star_mods, 2)
        small.extend((c,) for c in pool2)
        small.extend(pair for pair in itertools.combinations(pool2, 2))
        small.extend((c,) for c in clause_pool("abc", star_mods, 2))
        for clauses in small:
            occurring = sorted(set().union(*[c.vars() for c in clauses]))
            for psi_size in range(len(occurring) + 1):
                initial = tuple(occurring[:psi_size])
                phi = SnfFormula(frozenset({Mod.STAR}), initial, clauses)
                expected = star_sat_oracle(phi) is not None
                core = remove_tautologies(phi)
                for chosen in subsets_up_to(sorted(core.variables), 2):
                    if not verify_backdoor(core, chosen, HORN):
                        continue
                    result = evaluate_horn_star(phi, chosen)
                    assert result.satisfiable == expected


def test_criterion_4_star_krom_reduction_facts(tmp_path, capsys):
    """The always-only gadget: the worked example's facts hold, and over
    every edge subset of K5 satisfiability coincides with 3-colourability."""
    with criterion("4 star-krom reduction", 120.0):
        phi, backdoor = threecol_to_star_krom(TRIANGLE)
        assert backdoor == ("b1", "b2") and len(backdoor) == 2
        assert verify_backdoor(phi, backdoor, KROM)
        assert detect_krom_backdoor(phi, 2) is not None
        assert star_sat_oracle(phi) is not None
        table = parse_model_table(TRIANGLE_KROM_TABLE)
        assert models(table, phi)
        formula_path = tmp_path / "triangle_sk.snf"
        model_path = tmp_path / "triangle_sk.model"
        formula_path.write_text(format_snf(phi), encoding="utf-8")
        model_path.write_text(TRIANGLE_KROM_TABLE, encoding="utf-8")
        assert cli_main(["check-model", str(formula_path),
                         str(model_path)]) == 0
        for n in range(1, 6):
            pool = list(itertools.combinations(range(1, n + 1), 2))
            for mask in range(1 << len(pool)):
                g = Graph(n, frozenset(e for i, e in enumerate(pool)
                                       if mask >> i & 1))
                reduced, bd = threecol_to_star_krom(g)
                assert verify_backdoor(reduced, bd, KROM)
                sat = star_sat_oracle(reduced) is not None
                assert sat == (brute_3col(g) is not None)


def _check_witness_claims(g, m):
    span = range(m.lo - 2, m.hi + 3)
    for z in span:
        row = m.row(z)
        assert sum(row[f"c{j}"] for j in (1, 2, 3)) == 1
    for i in range(1, g.n + 1):
        for c in (1, 2, 3):
            assert len({m.row(z)[f"v{i}_{c}"] for z in span}) == 1
    for i in range(1, g.n + 1):
        for z in span:
            assert m.row(z)[f"p{i}"] == (z != m.start + i - 1)
    for i in range(1, g.n + 1):
        row = m.row(m.start + i - 1)
        for j in (1, 2, 3):
            assert row[f"c{j}"] == row[f"v{i}_{j}"]


def test_criterion_5_fp_horn_reduction_facts(tmp_path, capsys):
    """The past/future gadget: the worked example's facts hold, witness
    structure matches the intended reading on every satisfiable instance,
    and window search at width n+2 coincides with 3-colourability on all
    graphs with up to four vertices."""
    with criterion("5 fp-horn reduction", 120.0):
        phi, backdoor = threecol_to_fp_horn(TRIANGLE)
        assert backdoor == ("c1", "c2", "c3", "p3_prime")
        assert len(backdoor) == 4
        assert verify_backdoor(phi, backdoor, HORN)
        assert detect_horn_backdoor(phi, 4) is not None
        assert window_sat_oracle(phi, 5) is not None
        table = parse_model_table(TRIANGLE_HORN_TABLE)
        assert models(table, phi)
        formula_path = tmp_path / "triangle_fp.snf"
        model_path = tmp_path / "triangle_fp.model"
        formula_path.write_text(format_snf(phi), encoding="utf-8")
        model_path.write_text(TRIANGLE_HORN_TABLE, encoding="utf-8")
        assert cli_main(["check-model", str(formula_path),
                         str(model_path)]) == 0
        for n in range(1, 5):
            pool = list(itertools.combinations(range(1, n + 1), 2))
            for mask in range(1 << len(pool)):
                g = Graph(n, frozenset(e for i, e in enumerate(pool)
                                       if mask >> i & 1))
                reduced, bd = threecol_to_fp_horn(g)
                assert verify_backdoor(reduced, bd, HORN)
                witness = window_sat_oracle(reduced, n + 2)
                assert (witness is not None) == (brute_3col(g) is not None)
                if witness is not None:
                    _check_witness_claims(g, witness)


def test_criterion_6_tautology_removal_preserves_satisfiability():
    """Dropping always-pattern tautologies never changes the oracle verdict
    on instances seeded to contain them."""
    with criterion("6 tautology removal", 30.0):
        rng = random.Random(1006)
        seeded = 0
        for _ in range(200):
            phi = random_formula(rng, rng.randint(2, 8), rng.randint(2, 8),
                                 4, {Mod.STAR}, seed_tautologies=True)
            stripped = remove_tautologies(phi)
            if len(stripped.clauses) < len(phi.clauses):
                seeded += 1
            assert ((star_sat_oracle(phi) is None)
                    == (star_sat_oracle(stripped) is None))
        assert seeded >= 100  # the pattern seeding must actually bite


def test_criterion_7_propositional_backends():
    """Horn and Krom solvers agree with the exhaustive oracle, and the Horn
    model is minimal under the flip test."""
    with criterion("7 propositional backends", 30.0):
        atoms3 = [plain_atom(v) for v in "abc"]
        pool = []
        for size in (1, 2, 3):
            for combo in itertools.combinations(atoms3, size):
                for signs in itertools.product((True, False), repeat=size):
                    pool.append(tuple(zip(combo, signs)))

        def check(f):
            reference = brute_sat(f)
            if f.is_horn:
                got = horn_sat(f)
                assert (got is None) == (reference is None)
                if got is not None:
                    for atom, value in got.items():
                        if value:
                            pinned = PropCnf(list(f.clauses) + [((atom, False),)])
                            assert horn_sat(pinned) is None
            if f.is_krom:
                got = two_sat(f)
                assert (got is None) == (reference is None)
                if got is not None:
                    assert all(any(got[a] == pos for a, pos in c)
                               for c in f.clauses)

        for i in range(len(pool)):
            check(PropCnf([pool[i]]))
            for j in range(i, len(pool)):
                check(PropCnf([pool[i], pool[j]]))
        rng = random.Random(1007)
        atoms12 = [plain_atom(f"x{i}") for i in range(12)]
        for _ in range(500):
            clauses = []
            for _ in range(rng.randint(1, 12)):
                size = rng.randint(0, 4)
                clauses.append([(rng.choice(atoms12), rng.random() < 0.5)
                                for _ in range(size)])
            check(PropCnf(clauses))


def test_criterion_8_consistent_assignment_counts():
    """Consistent-assignment enumeration matches the filtered brute-force
    count: three rows per variable for the always-only operator set, nine
    for the full set."""
    with criterion("8 consistency combinatorics", 5.0):
        cases = [({Mod.STAR}, 3), ({Mod.PAST, Mod.FUT, Mod.STAR}, 9),
                 ({Mod.FUT}, 4), ({Mod.PAST, Mod.FUT}, 8), (set(), 2)]
        for ops, per_var in cases:
            mods = [Mod.NONE] + sorted(m for m in ops)
            for k in range(0, 4):
                names = [f"x{i}" for i in range(k)]
                got = sum(1 for _ in consistent_assignments(names, ops))
                assert got == per_var ** k
                keys = [(v, m) for v in names for m in mods]
                brute = 0
                for bits in itertools.product((False, True),
                                              repeat=len(keys)):
                    table = dict(zip(keys, bits))
                    ok = all(not table.get((v, Mod.STAR))
                             or all(table[(v, m)] for m in mods)
                             for v in names)
                    brute += ok
                assert got == brute
