"""The clause search and the Horn propagator must agree with the exhaustive
scan they are checked against, and the scan with plain enumeration."""

import itertools
import os
import random
import subprocess
import sys

import ltlbd
from ltlbd import _kernels


def random_int_cnf(rng, n_atoms, max_clauses=10, max_len=4):
    lits = []
    starts = [0]
    for _ in range(rng.randint(1, max_clauses)):
        for _ in range(rng.randint(0, max_len)):
            a = rng.randrange(n_atoms) + 1
            lits.append(a if rng.random() < 0.5 else -a)
        starts.append(len(lits))
    return lits, starts


def test_search_solve_standalone():
    # the clause search must be a complete solver on its own
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 6)
        lits, starts = random_int_cnf(rng, n, max_clauses=6, max_len=3)
        status, values = _kernels.search_solve(n, lits, starts, list(range(n)))
        found, mask = _kernels.brute_scan(n, lits, starts)
        assert status == found
        if status:
            got = sum(values[i] << (n - 1 - i) for i in range(n))
            assert got == mask  # lexicographically minimal in both paths


def test_shuffled_order_model_is_lex_minimal_after_learning():
    # ~20 atoms and ~80 three-literal clauses sit near the satisfiability
    # threshold, so the search learns clauses before it answers.  Relabelling
    # order[i] to atom i makes the scan's ascending order the search's
    # decision order, so both must return the same model.
    rng = random.Random(4)
    n_sat = 0
    for _ in range(20):
        n = rng.randint(18, 21)
        lits, starts = [], [0]
        for _ in range(rng.randint(70, 90)):
            for a in rng.sample(range(1, n + 1), 3):
                lits.append(a if rng.random() < 0.5 else -a)
            starts.append(len(lits))
        order = list(range(n))
        rng.shuffle(order)
        status, values = _kernels.search_solve(n, lits, starts, order)
        rank = {a: i for i, a in enumerate(order)}
        relabelled = [(rank[abs(l) - 1] + 1) * (1 if l > 0 else -1)
                      for l in lits]
        found, mask = _kernels.brute_scan(n, relabelled, starts)
        assert status == found
        if status:
            n_sat += 1
            got = sum(values[a] << (n - 1 - i) for i, a in enumerate(order))
            assert got == mask
    assert n_sat >= 5


def test_backjumps_below_the_decision_pointer_keep_the_first_model():
    # near the 3-SAT threshold (about 4.26 clauses per atom) learned clauses
    # unassign atoms before the decision pointer, which must then revisit
    # them; relabelling order[i] to atom i makes the scan's first model the
    # search's, at every size from a few atoms to a few dozen
    rng = random.Random(8)
    n_sat = n_unsat = 0
    for n in range(4, 25):
        for _ in range(6):
            lits, starts = [], [0]
            for _ in range(round(n * rng.uniform(3.8, 4.8))):
                for a in rng.sample(range(1, n + 1), 3):
                    lits.append(a if rng.random() < 0.5 else -a)
                starts.append(len(lits))
            order = list(range(n))
            rng.shuffle(order)
            status, values = _kernels.search_solve(n, lits, starts, order)
            rank = {a: i for i, a in enumerate(order)}
            relabelled = [(rank[abs(l) - 1] + 1) * (1 if l > 0 else -1)
                          for l in lits]
            found, mask = _kernels.brute_scan(n, relabelled, starts)
            assert status == found
            if status:
                n_sat += 1
                assert mask == sum(values[a] << (n - 1 - i)
                                   for i, a in enumerate(order))
            else:
                n_unsat += 1
    assert n_sat >= 30 and n_unsat >= 30


def test_empty_clause_or_contradicting_unit_after_other_units():
    # units are assigned in clause order until the first empty clause or
    # contradicting unit, which answers UNSAT with the values so far
    n = 3
    cases = [
        ([1, -2, 2, 3], [0, 1, 2, 4, 4], [1, 0, -1]),  # empty clause
        ([1, -2, 2, 3, -1], [0, 1, 2, 4, 5], [1, 0, -1]),  # unit -1 vs 1
        ([2, 3, -3, 1, 3], [0, 2, 3, 4, 5], [1, -1, 0]),  # unit 3 vs -3
        ([-3, 1, 2, 3], [0, 1, 1, 4], [-1, -1, 0]),  # empty after one unit
    ]
    for lits, starts, values in cases:
        assert _kernels.search_solve(n, lits, starts, [0, 1, 2]) == (0, values)
        assert _kernels.brute_scan(n, lits, starts) == (0, 0)


def random_horn_cnf(rng, n_atoms, max_clauses=8, max_body=3):
    """Clauses of distinct literals: a body of negated atoms and at most one
    head, which may repeat a body atom (a tautology)."""
    lits = []
    starts = [0]
    for _ in range(rng.randint(1, max_clauses)):
        body = rng.sample(range(1, n_atoms + 1),
                          rng.randint(0, min(max_body, n_atoms)))
        lits += [-a for a in body]
        if rng.random() < 0.7:
            lits.append(rng.randint(1, n_atoms))
        starts.append(len(lits))
    return lits, starts


def horn_fresh(n, lits, starts):
    heads, counts, occ, facts = _kernels.horn_index(n, lits, starts)
    values = [0] * n
    return _kernels.horn_forward(heads, counts, occ, values, facts), values


def test_horn_closure_extends_like_a_fresh_solve():
    # a closure copied and extended by facts must equal solving the clauses
    # plus those facts as unit clauses from scratch, and that minimal model
    # is the scan's lexicographically first one
    rng = random.Random(5)
    n_sat = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        lits, starts = random_horn_cnf(rng, n)
        facts = rng.sample(range(n), rng.randint(0, min(3, n)))
        full = lits + [a + 1 for a in facts]
        full_starts = starts + [starts[-1] + i + 1 for i in range(len(facts))]
        ok, fresh = horn_fresh(n, full, full_starts)
        found, mask = _kernels.brute_scan(n, full, full_starts)
        assert ok == found
        if ok:
            n_sat += 1
            assert sum(v << (n - 1 - i) for i, v in enumerate(fresh)) == mask

        heads, counts, occ, start = _kernels.horn_index(n, lits, starts)
        values = [0] * n
        if not _kernels.horn_forward(heads, counts, occ, values, start):
            assert not ok
            continue
        extended = values[:]
        assert _kernels.horn_forward(heads, counts[:], occ, extended,
                                     facts) == ok
        if ok:
            assert extended == fresh
    assert 50 <= n_sat <= 350


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


def naive_scan(n_atoms, lits, starts):
    """First model in ascending assignment order (atom 0 most significant),
    by plain enumeration."""
    clauses = [lits[starts[c]:starts[c + 1]] for c in range(len(starts) - 1)]
    for bits in itertools.product((0, 1), repeat=n_atoms):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return 1, sum(b << (n_atoms - 1 - i) for i, b in enumerate(bits))
    return 0, 0


def test_brute_scan_matches_enumeration():
    assert _kernels.brute_scan(0, [], [0]) == naive_scan(0, [], [0]) == (1, 0)
    assert _kernels.brute_scan(0, [], [0, 0]) == (0, 0)
    assert _kernels.brute_scan(3, [2], [0, 1, 1]) == (0, 0)  # empty clause
    rng = random.Random(6)
    n_sat = 0
    for _ in range(600):
        n = rng.randint(1, 10)
        if rng.random() < 0.25:  # unit clauses only
            units = rng.sample(range(1, n + 1), rng.randint(1, n))
            lits = [a if rng.random() < 0.5 else -a for a in units]
            starts = list(range(len(lits) + 1))
        else:
            lits, starts = random_int_cnf(rng, n, max_clauses=3 * n)
        found = _kernels.brute_scan(n, lits, starts)
        assert found == naive_scan(n, lits, starts)
        n_sat += found[0]
    assert 150 <= n_sat <= 450
