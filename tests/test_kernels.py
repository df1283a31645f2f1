"""The clause search and the Horn propagator must agree with the exhaustive
scan they are checked against."""

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


def test_import_leaves_numpy_unloaded():
    # numpy is imported only by the 2^n scans, on first use
    src = os.path.dirname(os.path.dirname(ltlbd.__file__))
    probe = "import sys, ltlbd; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          check=True)
    assert done.stdout.strip() == "False"
