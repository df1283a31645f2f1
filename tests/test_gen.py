import hashlib
import itertools
import random
import time
import tracemalloc
from collections import Counter

import pytest

from ltlbd.detection import HORN, KROM
from ltlbd.fileio import format_snf, parse_snf
from ltlbd.formula import Mod, SnfFormula
from ltlbd.gen import (GEN_SIZE_LIMIT, _below, _pick_slots, planted_instance,
                       random_formula)

POOL = ["x1", "x2", "x3"]
MODS = [Mod.NONE, Mod.STAR]


class TestPickSlots:
    def test_slots_are_distinct_pool_members(self):
        rng = random.Random(1)
        slots = set(itertools.product(POOL, MODS))
        for count in range(len(slots) + 1):
            for _ in range(50):
                picked = _pick_slots(rng, POOL, MODS, count)
                assert len(picked) == count
                assert len(set(picked)) == count
                assert set(picked) <= slots

    def test_count_is_capped_at_the_pool(self):
        rng = random.Random(2)
        picked = _pick_slots(rng, ["x1"], MODS, 3)
        assert sorted(picked) == [("x1", Mod.NONE), ("x1", Mod.STAR)]
        assert _pick_slots(rng, [], MODS, 2) == []

    def test_ordered_pairs_are_uniform(self):
        # 6 slots give 30 ordered pairs; 30,000 draws expect 1000 of each,
        # with a standard deviation of about 31, so 10 % is over 3 sigma
        rng = random.Random(3)
        draws = 30_000
        seen = Counter(tuple(_pick_slots(rng, POOL, MODS, 2))
                       for _ in range(draws))
        pairs = list(itertools.permutations(itertools.product(POOL, MODS), 2))
        assert set(seen) == set(pairs)
        expected = draws / len(pairs)
        assert all(abs(seen[p] - expected) <= 0.1 * expected for p in pairs)

    # random.sample shrinks a pool when size <= 21 (plus 4^ceil(log4 3k)
    # when count k > 5) and rejects repeats otherwise
    @pytest.mark.parametrize("n_pool,width,count", [
        (3, 2, 4), (3, 2, 9), (0, 2, 2), (5, 4, 3),
        (20, 2, 3), (700, 2, 4), (20, 4, 8), (50, 2, 8), (60, 4, 40),
        (1000, 4, 40),
    ], ids=["pool", "capped", "empty", "pool-21", "reject", "reject-large",
            "pool-k6", "reject-k6", "pool-k40", "reject-k40"])
    def test_draws_are_random_sample_draws(self, n_pool, width, count):
        pool = [f"x{i + 1}" for i in range(n_pool)]
        mods = [Mod.NONE, Mod.PAST, Mod.FUT, Mod.STAR][:width]
        size = n_pool * width
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            want = [(pool[i // width], mods[i % width])
                    for i in ref.sample(range(size), min(count, size))]
            assert _pick_slots(rng, pool, mods, count) == want
            assert rng.random() == ref.random()

    def test_below_is_randint(self):
        rng, ref = random.Random(4), random.Random(4)
        for n in [1, 2, 3, 4, 5, 7, 8, 9, 1000, 2 ** 31, 2 ** 31 + 1] * 50:
            assert _below(rng.getrandbits, n) == ref.randint(0, n - 1)
        assert rng.random() == ref.random()


# sha256 of format_snf plus a "backdoor:" line, first 16 hex digits, computed
# with Random.randint and Random.sample drawing every slot: any change to the
# stream changes them.  The gen-large shapes at seed 7, the README's `ltlbd
# gen` example, and edge cases (k = 0, every variable planted, no clauses,
# no operators, one variable).
PLANTED_DIGESTS = [
    ((7, 8, 10, HORN, 2, {Mod.STAR}), "a6ce660b89711999"),
    ((2144940041, 700, 1400, HORN, 4, {Mod.STAR}), "29b7a0b313ca31e7"),
    ((721934160, 500, 1000, HORN, 4, {Mod.FUT, Mod.PAST, Mod.STAR}),
     "46c79c2c6bc4862b"),
    ((1227871773, 700, 1400, KROM, 4, {Mod.STAR}), "4e82cdd0165b90a3"),
    ((1876489693, 500, 1000, KROM, 4, {Mod.FUT, Mod.PAST, Mod.STAR}),
     "540e106a8637680e"),
    ((3, 20, 40, HORN, 0, {Mod.FUT}), "e7c752f0570b014a"),
    ((5, 30, 60, KROM, 5, {Mod.FUT, Mod.PAST, Mod.STAR}), "c9a10dcc52da7d87"),
    ((11, 2, 6, HORN, 1, {Mod.STAR}), "7f6e614253565f6f"),
    ((13, 1, 4, KROM, 1, {Mod.PAST}), "de7ae7b745b7d277"),
    ((17, 50, 100, HORN, 3, set()), "8fc6417489db1a7f"),
    ((19, 12, 40, KROM, 12, {Mod.FUT, Mod.STAR}), "bb5b9bf42be17675"),
    ((23, 6, 0, HORN, 2, {Mod.STAR}), "75069bae5a5b3dcc"),
    ((29, 40, 80, KROM, 3, {Mod.FUT, Mod.PAST, Mod.STAR}), "449d585bb3dea3d1"),
]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "args,digest", PLANTED_DIGESTS,
    ids=[f"{a[0]}-{a[3]}-{a[1]}" for a, _ in PLANTED_DIGESTS])
def test_planted_instances_are_pinned(args, digest):
    phi, backdoor = planted_instance(*args)
    text = format_snf(phi)
    assert _digest(text + "backdoor: " + ",".join(backdoor) + "\n") == digest
    # the formula is built unvalidated: it must equal a validated build
    rebuilt = SnfFormula(phi.operators, phi.initial, phi.clauses)
    assert rebuilt == phi and rebuilt.variables == phi.variables
    assert parse_snf(text).variables == phi.variables


# sha256 of format_snf as above, and the generator's next random() after the
# call; (seed, n_vars, n_clauses, max_lits, operators, seed_tautologies)
RANDOM_DIGESTS = [
    ((31, 5, 8, 3, {Mod.STAR}, False),
     "b329eb33abc2fe2f", 0.376412071513904),
    ((37, 30, 20, 12, {Mod.FUT, Mod.PAST, Mod.STAR}, True),
     "115c6f9a8bf07feb", 0.4495227359293833),
    # draws no initial fact: its two draws both miss
    ((41, 2, 6, 9, {Mod.PAST}, False),
     "fff980efd344a201", 0.05352953274966665),
    ((43, 400, 50, 40, set(), False),
     "1162f15b68b8a982", 0.9853833871358847),
]


@pytest.mark.parametrize("args,digest,after", RANDOM_DIGESTS,
                         ids=[str(a[0]) for a, _, _ in RANDOM_DIGESTS])
def test_random_formulas_are_pinned(args, digest, after):
    seed, *rest = args
    rng = random.Random(seed)
    assert _digest(format_snf(random_formula(rng, *rest))) == digest
    assert rng.random() == after


@pytest.mark.parametrize("target", [HORN, KROM])
@pytest.mark.parametrize("ops", [{Mod.STAR}, {Mod.FUT, Mod.PAST, Mod.STAR}],
                         ids=["star", "fp-star"])
def test_large_planted_instance_is_fast(target, ops):
    t0 = time.perf_counter()
    phi, backdoor = planted_instance(0, 5000, 10000, target, 5, ops)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"planted_instance took {elapsed:.2f} s"
    assert len(backdoor) == 5 and len(phi.clauses) >= 10000
    assert parse_snf(format_snf(phi)) == phi


@pytest.mark.parametrize("n_vars,n_clauses", [
    (GEN_SIZE_LIMIT + 1, 1), (1, GEN_SIZE_LIMIT + 1)], ids=["vars", "clauses"])
def test_size_over_the_limit_is_refused_before_generating(n_vars, n_clauses):
    # the limit is checked first: refusing allocates almost nothing
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"at most {GEN_SIZE_LIMIT}"):
            planted_instance(0, n_vars, n_clauses, HORN, 0, {Mod.STAR})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


BAD_OPS = "operator set may only contain"


@pytest.mark.parametrize("n_vars,target,size,ops,message", [
    (3, "cnf", 0, {Mod.STAR}, "unknown target class: cnf"),
    (3, HORN, -1, {Mod.STAR},
     "backdoor size must be between 0 and the variable count"),
    (3, KROM, 4, {Mod.STAR},
     "backdoor size must be between 0 and the variable count"),
    (-3, HORN, 0, {Mod.STAR}, "variable count must not be negative"),
    (3, HORN, 1, {"F"}, BAD_OPS),
    (3, HORN, 1, {Mod.NONE}, BAD_OPS),
    (3, KROM, 1, {Mod.STAR, 2}, BAD_OPS),
], ids=["unknown-target", "negative-size", "size-over-vars", "negative-vars",
        "op-string", "op-none", "op-int"])
def test_bad_planting_is_refused(n_vars, target, size, ops, message):
    with pytest.raises(ValueError, match=message):
        planted_instance(0, n_vars, 3, target, size, ops)


@pytest.mark.parametrize("ops", [{"F"}, {Mod.NONE, Mod.STAR}],
                         ids=["op-string", "op-none"])
def test_bad_operators_are_refused_before_drawing(ops):
    # at the size limit a late refusal would allocate megabytes
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=BAD_OPS):
            planted_instance(0, GEN_SIZE_LIMIT, GEN_SIZE_LIMIT, HORN, 0, ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=BAD_OPS):
        random_formula(rng, 5, 5, 3, ops)
    assert rng.getstate() == state


@pytest.mark.parametrize("max_lits", [0, -2])
def test_random_formula_needs_a_literal(max_lits):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError,
                       match=f"max_lits must be at least 1, got {max_lits}"):
        random_formula(rng, 5, 5, max_lits, {Mod.STAR})
    assert rng.getstate() == state


@pytest.mark.parametrize("n_vars,n_clauses,message", [
    (-2, 3, "variable count must not be negative"),
    (3, -2, "clause count must not be negative"),
], ids=["negative-vars", "negative-clauses"])
def test_random_formula_refuses_negative_counts(n_vars, n_clauses, message):
    # unchecked, these counts gave three empty clauses, and one clause
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match=message):
        random_formula(rng, n_vars, n_clauses, 2, set())
    assert rng.getstate() == state


def test_tautologies_need_a_variable():
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="seeding tautologies needs at least "
                                         "one variable"):
        random_formula(rng, 0, 5, 3, {Mod.STAR}, seed_tautologies=True)
    assert rng.getstate() == state
    # without an always operator nothing is seeded, and no variable is needed
    phi = random_formula(rng, 0, 5, 3, {Mod.FUT}, seed_tautologies=True)
    assert phi.variables == ()
