import itertools
import random
import time
import tracemalloc
from collections import Counter

import pytest

from ltlbd.detection import HORN, KROM
from ltlbd.fileio import format_snf, parse_snf
from ltlbd.formula import Mod
from ltlbd.gen import GEN_SIZE_LIMIT, _pick_slots, planted_instance

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


@pytest.mark.parametrize("target,size,message", [
    ("cnf", 0, "unknown target class: cnf"),
    (HORN, -1, "backdoor size must be between 0 and the variable count"),
    (KROM, 4, "backdoor size must be between 0 and the variable count"),
], ids=["unknown-target", "negative-size", "size-over-vars"])
def test_bad_planting_is_refused(target, size, message):
    with pytest.raises(ValueError, match=message):
        planted_instance(0, 3, 3, target, size, {Mod.STAR})
