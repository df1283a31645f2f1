"""The clause search and the Horn propagator must agree with the exhaustive
scan they are checked against, and the scan with plain enumeration."""

import collections
import itertools
import os
import random
import subprocess
import sys

import ltlbd
from ltlbd import _kernels


def random_int_cnf(rng, n_atoms, max_clauses=10, max_len=4, repeats=0.0):
    """Random clauses of ±(atom+1) literals; with probability ``repeats`` a
    clause also gets a copy of one of its literals, or of its negation."""
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        clause = []
        for _ in range(rng.randint(0, max_len)):
            a = rng.randrange(n_atoms) + 1
            clause.append(a if rng.random() < 0.5 else -a)
        if repeats and clause and rng.random() < repeats:
            lit = rng.choice(clause)
            clause.insert(rng.randint(0, len(clause)),
                          lit if rng.random() < 0.5 else -lit)
        clauses.append(clause)
    return clauses


def test_search_solve_standalone():
    # the clause search must be a complete solver on its own, for any
    # numbering of the atoms, also when a clause repeats a literal or holds
    # it with its negation, so that both watches may sit on one atom; both
    # the search and the scan must return the first model of the clauses
    # with order[i] relabelled to atom i
    rng = random.Random(3)
    n_repeats = n_sat = 0
    for repeats, count in ((0.0, 50), (0.5, 400)):
        for _ in range(count):
            n = rng.randint(1, 6)
            clauses = random_int_cnf(rng, n, max_clauses=6, max_len=3,
                                     repeats=repeats)
            n_repeats += sum(len({abs(l) for l in c}) < len(c)
                             for c in clauses)
            order = list(range(n))
            rng.shuffle(order)
            relabelled = relabel(clauses, {a: i for i, a in enumerate(order)})
            status, values = _kernels.search_solve(n, relabelled)
            found, mask = _kernels.brute_scan(n, relabelled)
            assert status == found
            if status:
                n_sat += 1
                # lexicographically minimal in both
                assert as_mask(values) == mask
    assert n_repeats >= 400 and 100 <= n_sat <= 350


def relabel(clauses, rank):
    """The clauses with atom ``a`` renamed to ``rank[a]``."""
    return [[(rank[abs(l) - 1] + 1) * (1 if l > 0 else -1) for l in c]
            for c in clauses]


def as_mask(values):
    """A 0/1 assignment as the scan's mask: atom i at bit n-1-i."""
    return sum(v << (len(values) - 1 - i) for i, v in enumerate(values))


def random_3cnf(rng, n, n_clauses):
    return [[a if rng.random() < 0.5 else -a
             for a in rng.sample(range(1, n + 1), 3)]
            for _ in range(n_clauses)]


def test_shuffled_order_model_is_lex_minimal_after_learning():
    # ~20 atoms and ~80 three-literal clauses sit near the satisfiability
    # threshold, so the search learns clauses before it answers.  On the
    # clauses with order[i] relabelled to atom i, the scan's ascending order
    # is the search's decision order, so both must return the same model.
    rng = random.Random(4)
    n_sat = 0
    for _ in range(20):
        n = rng.randint(18, 21)
        clauses = random_3cnf(rng, n, rng.randint(70, 90))
        order = list(range(n))
        rng.shuffle(order)
        relabelled = relabel(clauses, {a: i for i, a in enumerate(order)})
        status, values = _kernels.search_solve(n, relabelled)
        found, mask = _kernels.brute_scan(n, relabelled)
        assert status == found
        if status:
            n_sat += 1
            assert as_mask(values) == mask
    assert n_sat >= 5


def test_backjumps_below_the_decision_pointer_keep_the_first_model():
    # near the 3-SAT threshold (about 4.26 clauses per atom) learned clauses
    # unassign atoms below the decision pointer, which must then revisit
    # them; on the clauses with order[i] relabelled to atom i, the scan's
    # first model is the search's, at every size from a few atoms to a few
    # dozen
    rng = random.Random(8)
    n_sat = n_unsat = 0
    for n in range(4, 25):
        for _ in range(6):
            clauses = random_3cnf(rng, n, round(n * rng.uniform(3.8, 4.8)))
            order = list(range(n))
            rng.shuffle(order)
            relabelled = relabel(clauses, {a: i for i, a in enumerate(order)})
            status, values = _kernels.search_solve(n, relabelled)
            found, mask = _kernels.brute_scan(n, relabelled)
            assert status == found
            if status:
                n_sat += 1
                assert mask == as_mask(values)
            else:
                n_unsat += 1
    assert n_sat >= 30 and n_unsat >= 30


def test_kernels_leave_their_inputs_alone():
    # every kernel reads its clause list and owns none of it: on a
    # satisfiable 3-CNF and a near-threshold unsatisfiable one, where the
    # search learns clauses (1 and 9) and moves watched literals in its own
    # arrays, the lists are unchanged afterwards, and the same clauses as
    # tuples give the same answers
    rng = random.Random(14)
    sat, unsat = random_3cnf(rng, 12, 36), random_3cnf(rng, 12, 60)
    horn = random_horn_cnf(rng, 12, max_clauses=30)
    order = list(range(12))
    rng.shuffle(order)
    rank = {a: i for i, a in enumerate(order)}
    sat, unsat = relabel(sat, rank), relabel(unsat, rank)

    def answers(clauses):
        return (_kernels.search_solve(12, clauses),
                _kernels.brute_scan(12, clauses),
                _kernels.star_scan(6, clauses, 0b101))

    expected = [(1, 1, 1), (0, 0, 0)]
    for clauses, verdicts in zip((sat, unsat), expected):
        snapshot = [c[:] for c in clauses]
        got = answers(clauses)
        assert tuple(g[0] for g in got) == verdicts
        assert clauses == snapshot
        assert answers(tuple(map(tuple, clauses))) == got
    snapshot = [c[:] for c in horn]
    index = _kernels.horn_index(12, horn)
    assert horn == snapshot
    assert _kernels.horn_index(12, tuple(map(tuple, horn))) == index


def test_empty_clause_or_contradicting_unit_after_other_units():
    # units are assigned in clause order until the first empty clause or
    # contradicting unit, which answers UNSAT with the values so far
    n = 3
    cases = [
        ([[1], [-2], [2, 3], []], [1, 0, -1]),  # empty clause
        ([[1], [-2], [2, 3], [-1]], [1, 0, -1]),  # unit -1 vs 1
        ([[2, 3], [-3], [1], [3]], [1, -1, 0]),  # unit 3 vs -3
        ([[-3], [], [1, 2, 3]], [-1, -1, 0]),  # empty after one unit
    ]
    for clauses, values in cases:
        assert _kernels.search_solve(n, clauses) == (0, values)
        assert _kernels.brute_scan(n, clauses) == (0, 0)


def random_horn_cnf(rng, n_atoms, max_clauses=8, max_body=3):
    """Clauses of distinct literals: a body of negated atoms and at most one
    head, which may repeat a body atom (a tautology)."""
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        body = rng.sample(range(1, n_atoms + 1),
                          rng.randint(0, min(max_body, n_atoms)))
        clause = [-a for a in body]
        if rng.random() < 0.7:
            clause.append(rng.randint(1, n_atoms))
        clauses.append(clause)
    return clauses


def test_search_solve_matches_the_scan():
    # the same status and, on SAT, the same model as the exhaustive scan on
    # small CNFs with repeated literals, a literal next to its negation,
    # units and empty clauses, and on near-threshold 3-CNFs of up to 22
    # atoms; each atom is relabelled to its first position in a shuffled
    # order that may repeat an atom; the list and tuple inputs stay as they
    # were
    rng = random.Random(19)
    cases = []
    for _ in range(9000):
        n = rng.randint(1, 8)
        clauses = random_int_cnf(rng, n, max_clauses=3 * n,
                                 repeats=rng.choice((0.0, 0.3)))
        if rng.random() < 0.85:  # keep empty clauses in a few cases only
            clauses = [c for c in clauses if c]
        cases.append((n, clauses))
    for _ in range(1000):
        n = rng.randint(10, 22)
        cases.append((n, random_3cnf(rng, n,
                                     round(n * rng.uniform(3.6, 4.8)))))
    counts = collections.Counter()
    for n, clauses in cases:
        order = list(range(n))
        rng.shuffle(order)
        if rng.random() < 0.2:
            order.insert(rng.randint(0, n), rng.choice(order))
        rank = {a: i for i, a in enumerate(dict.fromkeys(order))}
        relabelled = relabel(clauses, rank)
        snapshot = [c[:] for c in relabelled]
        frozen = tuple(map(tuple, relabelled))
        status, values = _kernels.search_solve(n, relabelled)
        assert relabelled == snapshot
        assert _kernels.search_solve(n, frozen) == (status, values)
        found, mask = _kernels.brute_scan(n, relabelled)
        assert status == found
        if status:
            assert as_mask(values) == mask
        counts[status, any(not c for c in clauses),
               any(len(c) == 1 for c in clauses)] += 1
    sat = counts[1, False, False] + counts[1, False, True]
    unsat = counts[0, False, False] + counts[0, False, True]
    empty = counts[0, True, False] + counts[0, True, True]
    assert sat >= 6000 and counts[1, False, True] >= 3000
    assert unsat >= 1200 and empty >= 600


def horn_fresh(n, clauses):
    heads, counts, occ, facts = _kernels.horn_index(n, clauses)
    values = [0] * n
    ok = _kernels.horn_forward(heads, counts, occ, values, facts) is not None
    return ok, values


def test_horn_closure_extends_like_a_fresh_solve():
    # a closure copied and extended by facts must equal solving the clauses
    # plus those facts as unit clauses from scratch, and that minimal model
    # is the scan's lexicographically first one; the kernel returns None on
    # falsum, else exactly the atoms it made true, [] when it sets none
    rng = random.Random(5)
    n_sat = n_empty = n_falsum = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        clauses = random_horn_cnf(rng, n)
        facts = rng.sample(range(n), rng.randint(0, min(3, n)))
        full = clauses + [[a + 1] for a in facts]
        ok, fresh = horn_fresh(n, full)
        found, mask = _kernels.brute_scan(n, full)
        assert ok == found
        if ok:
            n_sat += 1
            assert sum(v << (n - 1 - i) for i, v in enumerate(fresh)) == mask

        heads, counts, occ, start = _kernels.horn_index(n, clauses)
        values = [0] * n
        closed = _kernels.horn_forward(heads, counts, occ, values, start)
        if closed is None:
            assert not ok
            continue
        assert sorted(closed) == [a for a in range(n) if values[a]]
        extended = values[:]
        trail = _kernels.horn_forward(heads, counts[:], occ, extended, facts)
        assert (trail is not None) == ok
        if ok:
            assert extended == fresh
            # the trail lists exactly the atoms the extension made true
            assert sorted(trail) == [a for a in range(n)
                                     if extended[a] and not values[a]]
            n_empty += trail == []
        else:
            n_falsum += 1
    assert 50 <= n_sat <= 350 and n_empty >= 20 and n_falsum >= 10


def test_runs_without_numpy(tmp_path):
    # no runtime dependency: the scans, the star oracle's scan path and the
    # CLI all work when numpy cannot be imported
    src = os.path.dirname(os.path.dirname(ltlbd.__file__))
    path = tmp_path / "f.snf"
    path.write_text("operators: *\ninit: a\nclause: ~a | b\n"
                    "clause: [*]b | ~c\n", encoding="utf-8")
    probe = f"""
import sys
sys.modules["numpy"] = None
import ltlbd
from ltlbd.cli import main
from ltlbd.fileio import parse_snf
from ltlbd.oracle import SCAN_VAR_LIMIT, star_sat_oracle
from ltlbd.propsat import PropCnf, brute_sat, plain_atom
a, b = plain_atom("a"), plain_atom("b")
cnf = PropCnf([[(a, True), (b, True)], [(a, False)]])
assert brute_sat(cnf) == {{a: False, b: True}}
phi = parse_snf(open({str(path)!r}).read())
assert len(phi.variables) <= SCAN_VAR_LIMIT
assert star_sat_oracle(phi) is not None
sys.exit(main(["solve", {str(path)!r}, "--oracle", "star"]))
"""
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert "verdict: SAT" in done.stdout


def naive_scan(n_atoms, clauses):
    """First model in ascending assignment order (atom 0 most significant),
    by plain enumeration."""
    for bits in itertools.product((0, 1), repeat=n_atoms):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return 1, sum(b << (n_atoms - 1 - i) for i, b in enumerate(bits))
    return 0, 0


def test_brute_scan_matches_enumeration():
    assert _kernels.brute_scan(0, []) == naive_scan(0, []) == (1, 0)
    assert _kernels.brute_scan(0, [[]]) == (0, 0)
    assert _kernels.brute_scan(3, [[2], []]) == (0, 0)  # empty clause
    rng = random.Random(6)
    n_sat = 0
    for _ in range(600):
        n = rng.randint(1, 10)
        if rng.random() < 0.25:  # unit clauses only
            units = rng.sample(range(1, n + 1), rng.randint(1, n))
            clauses = [[a if rng.random() < 0.5 else -a] for a in units]
        else:
            clauses = random_int_cnf(rng, n, max_clauses=3 * n,
                                     repeats=rng.choice((0.0, 0.3)))
        found = _kernels.brute_scan(n, clauses)
        assert found == naive_scan(n, clauses)
        n_sat += found[0]
    assert 150 <= n_sat <= 450


def naive_star(n, clauses, psi_mask):
    """``star_scan`` by plain enumeration: atom i < n reads bit i of the
    global candidate ``g``, atom n + i bit i of the world ``a`` (variable i
    at bit n-1-i)."""

    def holds(lit, g, a):
        x = abs(lit) - 1
        bits, i = (g, x) if x < n else (a, x - n)
        return (bits >> (n - 1 - i)) & 1 == (lit > 0)

    for g in range(1 << n):
        members = [a for a in range(1 << n) if a & g == g
                   and all(any(holds(l, g, a) for l in c) for c in clauses)]
        first = [a for a in members if a & psi_mask == psi_mask]
        if not first:
            continue
        wit = [-1] * n
        for i in range(n):
            if (g >> (n - 1 - i)) & 1:
                continue
            falsified = [a for a in members if not (a >> (n - 1 - i)) & 1]
            if not falsified:
                break
            wit[i] = falsified[0]
        else:
            return 1, g, first[0], wit
    return 0, 0, 0, [-1] * n


def test_star_scan_matches_enumeration():
    assert _kernels.star_scan(0, [], 0) == (1, 0, 0, [])
    assert _kernels.star_scan(0, [[]], 0) == (0, 0, 0, [])
    assert _kernels.star_scan(2, [[3], []], 0) == (0, 0, 0, [-1, -1])
    rng = random.Random(9)
    n_found = 0
    for n in range(1, 9):
        for _ in range(80 if n <= 5 else 12):
            clauses = []
            for _ in range(rng.randint(0, 2 * n)):
                if rng.random() < 0.05:  # an empty clause
                    clauses.append([])
                    continue
                clause = []
                for _ in range(rng.randint(1, 3)):
                    a = rng.randrange(2 * n) + 1
                    clause.append(a if rng.random() < 0.5 else -a)
                clauses.append(clause)
            psi_mask = rng.randrange(1 << n)
            got = _kernels.star_scan(n, clauses, psi_mask)
            assert got == naive_star(n, clauses, psi_mask)
            n_found += got[0]
    assert 100 <= n_found <= 380


def flat_star(n, clauses, psi_mask):
    """``star_scan`` as a flat loop: every candidate ``g`` in ascending
    order, its member table built from scratch."""
    cols = _kernels._columns(n)
    full = (1 << (1 << n)) - 1
    split = _kernels._split(clauses, n, cols, full)
    psi = full
    for i in range(n):
        if (psi_mask >> (n - 1 - i)) & 1:
            psi &= cols[i]
    for g in range(1 << n):
        member = full
        for i in range(n):
            if (g >> (n - 1 - i)) & 1:
                member &= cols[i]
        for pos, neg, table in split:
            if g & pos or ~g & neg:
                continue
            member &= table
        if not member & psi:
            continue
        wit = [-1] * n
        for i in range(n):
            if (g >> (n - 1 - i)) & 1:
                continue
            cand = member & ~cols[i]
            if not cand:
                break
            wit[i] = _kernels._lowest(cand)
        else:
            return 1, g, _kernels._lowest(member & psi), wit
    return 0, 0, 0, [-1] * n


def test_star_scan_matches_the_flat_scan():
    # above the sizes plain enumeration can check: the pruned walk returns
    # the flat scan's candidate, first member and witnesses, with plain-only
    # clauses, empty clauses, an always-atom in both signs of one clause,
    # and clauses that fix always-atoms, so that the first candidate may lie
    # deep in the order or not exist
    rng = random.Random(23)
    found = collections.Counter()
    kinds = collections.Counter()
    for n in range(9, 13):
        for case in range(12):
            clauses = []
            for _ in range(rng.randint(n // 2, n + n // 2)):
                clause = []
                for _ in range(rng.randint(2, 3)):
                    a = rng.randrange(2 * n) + 1
                    clause.append(a if rng.random() < 0.5 else -a)
                clauses.append(clause)
            # units on always-atoms push the first candidate up the order
            for a in rng.sample(range(1, n + 1), rng.randint(0, n // 2)):
                clauses.append([a if rng.random() < 0.3 else -a])
            if case % 4 == 1:
                clauses.append([n + rng.randrange(n) + 1])
                kinds["plain-only"] += 1
            elif case % 4 == 2:
                a = rng.randrange(n) + 1
                clauses.append([a, n + rng.randrange(n) + 1, -a])
                kinds["both-signs"] += 1
            elif case % 4 == 3 and case > 4:
                clauses.append([])
                kinds["empty"] += 1
            rng.shuffle(clauses)
            psi_mask = rng.randrange(1 << n)
            got = _kernels.star_scan(n, clauses, psi_mask)
            assert got == flat_star(n, clauses, psi_mask)
            found[got[0]] += 1
    assert found[0] >= 15 and found[1] >= 20
    assert min(kinds.values()) >= 8
