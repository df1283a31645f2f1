"""Seeded random instances, including planted-backdoor construction.

The planted construction draws every clause so that its literals outside the
chosen backdoor already obey the target class; injected class violations only
ever touch backdoor variables.  Any reduct under a consistent backdoor
assignment is then a subset of the in-class part, so the planted set always
verifies.

Clause literals sit on distinct (variable, modality) slots, drawn by
:func:`_pick_slots` as a uniform ordered sample without replacement: the
first ``n_pos`` slots of a draw (the positive ones) are a uniform sample of
their own.  A draw costs time in the number of slots kept, not in the pool
size, so large instances generate in linear time.
"""

from __future__ import annotations

import random
from typing import Iterable

from .detection import HORN, KROM, verify_backdoor
from .formula import Clause, Lit, Mod, SnfFormula

#: At most this many variables and clauses: generation is linear in both.
GEN_SIZE_LIMIT = 100_000


def _pick_slots(rng: random.Random, pool: list, mods: list, count: int) -> list:
    """``min(count, len(pool) * len(mods))`` distinct (variable, modality)
    slots, as a uniform ordered sample: every sequence of that many distinct
    slots is equally likely, so any prefix is a uniform sample too.

    Slot ``i`` is ``(pool[i // len(mods)], mods[i % len(mods)])``; drawing
    indices with :meth:`random.Random.sample` costs O(count), not
    O(len(pool) * len(mods)).
    """
    width = len(mods)
    size = len(pool) * width
    return [(pool[i // width], mods[i % width])
            for i in rng.sample(range(size), min(count, size))]


def planted_instance(seed: int, n_vars: int, n_clauses: int, target: str,
                     backdoor_size: int,
                     operators: Iterable[Mod]) -> tuple[SnfFormula, tuple[str, ...]]:
    """A formula together with a planted strong backdoor that verifies."""
    if max(n_vars, n_clauses) > GEN_SIZE_LIMIT:
        raise ValueError(f"at most {GEN_SIZE_LIMIT} variables and clauses")
    if target not in (HORN, KROM):
        raise ValueError(f"unknown target class: {target}")
    if not 0 <= backdoor_size <= n_vars:
        raise ValueError("backdoor size must be between 0 and the variable count")
    if n_clauses < 0:
        raise ValueError("clause count must not be negative")
    if n_clauses and not n_vars:
        raise ValueError("clauses need at least one variable")
    rng = random.Random(seed)
    ops = sorted(set(operators))
    mods = [Mod.NONE] + ops
    variables = [f"x{i + 1}" for i in range(n_vars)]
    backdoor = sorted(rng.sample(variables, backdoor_size))
    chosen = set(backdoor)
    rest = [v for v in variables if v not in chosen]

    clauses = []
    for _ in range(n_clauses):
        lits = []
        if rest:
            if target == HORN:
                n_pos = rng.randint(0, 1)
                n_neg = rng.randint(0 if n_pos else 1, 3)
            else:
                total = rng.randint(1, 2)
                n_pos = rng.randint(0, total)
                n_neg = total - n_pos
            picked = _pick_slots(rng, rest, mods, n_pos + n_neg)
            for k, (v, m) in enumerate(picked):
                lits.append(Lit(v, m, k < n_pos))
        if backdoor and rng.random() < 0.7:
            extra = _pick_slots(rng, backdoor, mods, rng.randint(1, 2))
            for v, m in extra:
                positive = True if target == HORN else rng.random() < 0.5
                lits.append(Lit(v, m, positive))
        if not lits:
            v, m = _pick_slots(rng, variables, mods, 1)[0]
            lits.append(Lit(v, m, False))
        clauses.append(Clause(lits))

    # every backdoor variable must occur, or it would not survive printing
    used = set().union(*[c.vars() for c in clauses])
    for v in backdoor:
        if v not in used:
            clauses.append(Clause([Lit(v, rng.choice(mods), True)]))
            used.add(v)

    occurring = sorted(used)
    initial = tuple(v for v in occurring if rng.random() < 0.3)
    phi = SnfFormula(frozenset(ops), initial, tuple(clauses))
    if not verify_backdoor(phi, backdoor, target):
        raise AssertionError("planted backdoor does not verify")
    return phi, tuple(backdoor)


def random_formula(rng: random.Random, n_vars: int, n_clauses: int,
                   max_lits: int, operators: Iterable[Mod],
                   with_initial: bool = True,
                   seed_tautologies: bool = False) -> SnfFormula:
    """A generic random formula.

    Every clause draws distinct (variable, modality) slots, so no clause
    contains a literal together with its exact negation.  With
    ``seed_tautologies`` some clauses receive a negated always-literal next
    to a positive plain literal over the same variable.
    """
    ops = sorted(set(operators))
    mods = [Mod.NONE] + ops
    variables = [f"x{i + 1}" for i in range(n_vars)]
    clauses = []
    for _ in range(max(n_clauses, 1)):
        picked = _pick_slots(rng, variables, mods, rng.randint(1, max_lits))
        lits = [Lit(v, m, rng.random() < 0.5) for v, m in picked]
        if seed_tautologies and Mod.STAR in ops and rng.random() < 0.5:
            v = rng.choice(variables)
            lits = [l for l in lits if l.var != v]
            lits += [Lit(v, Mod.STAR, False), Lit(v, Mod.NONE, True)]
        clauses.append(Clause(lits))
    occurring = sorted(set().union(*[c.vars() for c in clauses]))
    initial = tuple(v for v in occurring
                    if with_initial and rng.random() < 0.25)
    return SnfFormula(frozenset(ops), initial, tuple(clauses))
