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

The per-clause draws call the generator's ``getrandbits`` directly, through
:func:`_below` and :func:`_sample`, which make exactly the calls that
``Random.randint`` and ``Random.sample(range(size), count)`` make.  So the
stream, and every instance of a given seed, is the one those methods give;
``tests/test_gen.py`` pins both the draws and a table of instance digests.
"""

from __future__ import annotations

import random
from math import ceil, log
from typing import Iterable

from .detection import HORN, KROM, verify_backdoor
from .formula import Clause, Lit, Mod, SnfFormula, _trusted, operator_set

#: At most this many variables and clauses: generation is linear in both.
GEN_SIZE_LIMIT = 100_000

_tuple_new = tuple.__new__  # builds a Lit without its Python-level __new__


def _below(getrandbits, n: int) -> int:
    """``Random._randbelow(n)`` through the public ``getrandbits``: a uniform
    integer in ``[0, n)``, from ``n.bit_length()`` bits redrawn while out of
    range.  ``n`` must be positive: ``getrandbits(0)`` is 0, so ``n = 0``
    never returns."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _sample(getrandbits, size: int, count: int) -> list[int]:
    """``Random.sample(range(size), count)`` for ``0 <= count <= size``: the
    same list from the same draws, through the method's own two branches (a
    shrinking pool when ``size`` is small against ``count``, else rejection
    of repeats)."""
    setsize = 21
    if count > 5:
        setsize += 4 ** ceil(log(count * 3, 4))
    out = []
    if size <= setsize:
        pool = list(range(size))
        for left in range(size, size - count, -1):
            j = _below(getrandbits, left)
            out.append(pool[j])
            pool[j] = pool[left - 1]
    else:
        # redrawing a repeat is one more _below(size), so every draw is a
        # bit_length-bit word kept only when below size and not yet taken
        k = size.bit_length()
        selected = set()
        for _ in range(count):
            j = getrandbits(k)
            while j >= size or j in selected:
                j = getrandbits(k)
            selected.add(j)
            out.append(j)
    return out


def _pick_slots(rng: random.Random, pool: list, mods: list, count: int) -> list:
    """``min(count, len(pool) * len(mods))`` distinct (variable, modality)
    slots, as a uniform ordered sample: every sequence of that many distinct
    slots is equally likely, so any prefix is a uniform sample too.

    Slot ``i`` is ``(pool[i // len(mods)], mods[i % len(mods)])``; the
    indices are ``rng.sample(range(len(pool) * len(mods)), ...)``, drawn by
    :func:`_sample` in O(count), not O(len(pool) * len(mods)).
    """
    width = len(mods)
    size = len(pool) * width
    return [(pool[i // width], mods[i % width])
            for i in _sample(rng.getrandbits, size, min(count, size))]


def planted_instance(seed: int, n_vars: int, n_clauses: int, target: str,
                     backdoor_size: int,
                     operators: Iterable[Mod]) -> tuple[SnfFormula, tuple[str, ...]]:
    """A formula together with a planted strong backdoor that verifies.

    Each literal and clause is built once, and the formula through
    ``formula._trusted``: its names are ``x1 .. xn``, valid by construction,
    and its universe is the names that occur, collected while drawing.
    """
    if max(n_vars, n_clauses) > GEN_SIZE_LIMIT:
        raise ValueError(f"at most {GEN_SIZE_LIMIT} variables and clauses")
    if target not in (HORN, KROM):
        raise ValueError(f"unknown target class: {target}")
    if n_vars < 0:
        raise ValueError("variable count must not be negative")
    if not 0 <= backdoor_size <= n_vars:
        raise ValueError("backdoor size must be between 0 and the variable count")
    if n_clauses < 0:
        raise ValueError("clause count must not be negative")
    if n_clauses and not n_vars:
        raise ValueError("clauses need at least one variable")
    ops = operator_set(operators)
    rng = random.Random(seed)
    bits = rng.getrandbits
    rand = rng.random
    mods = [Mod.NONE, *sorted(ops)]
    width = len(mods)
    variables = [f"x{i + 1}" for i in range(n_vars)]
    backdoor = sorted(rng.sample(variables, backdoor_size))
    chosen = set(backdoor)
    rest = [v for v in variables if v not in chosen]
    rest_size = len(rest) * width
    back_size = len(backdoor) * width
    horn = target == HORN

    used = set()
    clauses = []
    for _ in range(n_clauses):
        lits = []
        if rest:
            # randint(a, b) is a + _below(bits, b - a + 1)
            if horn:
                n_pos = _below(bits, 2)
                n_neg = _below(bits, 4) if n_pos else 1 + _below(bits, 3)
            else:
                total = 1 + _below(bits, 2)
                n_pos = _below(bits, total + 1)
                n_neg = total - n_pos
            count = min(n_pos + n_neg, rest_size)
            for k, i in enumerate(_sample(bits, rest_size, count)):
                v = rest[i // width]
                lits.append(_tuple_new(Lit, (v, mods[i % width], k < n_pos)))
                used.add(v)
        if backdoor and rand() < 0.7:
            count = min(1 + _below(bits, 2), back_size)
            for i in _sample(bits, back_size, count):
                v = backdoor[i // width]
                positive = True if horn else rand() < 0.5
                lits.append(_tuple_new(Lit, (v, mods[i % width], positive)))
                used.add(v)
        if not lits:
            i = _below(bits, n_vars * width)  # a sample of one slot
            v = variables[i // width]
            lits.append(_tuple_new(Lit, (v, mods[i % width], False)))
            used.add(v)
        clauses.append(Clause(lits))

    # every backdoor variable must occur, or it would not survive printing
    for v in backdoor:
        if v not in used:
            clauses.append(Clause([Lit(v, rng.choice(mods), True)]))
            used.add(v)

    occurring = sorted(used)
    initial = tuple(v for v in occurring if rand() < 0.3)
    phi = _trusted(ops, initial, tuple(clauses), tuple(occurring))
    if not verify_backdoor(phi, backdoor, target):
        raise AssertionError("planted backdoor does not verify")
    return phi, tuple(backdoor)


def random_formula(rng: random.Random, n_vars: int, n_clauses: int,
                   max_lits: int, operators: Iterable[Mod],
                   seed_tautologies: bool = False) -> SnfFormula:
    """A generic random formula.

    Every clause draws distinct (variable, modality) slots, so no clause
    contains a literal together with its exact negation.  With
    ``seed_tautologies`` some clauses receive a negated always-literal next
    to a positive plain literal over the same variable.
    """
    ops = operator_set(operators)
    if max_lits < 1:
        raise ValueError(f"max_lits must be at least 1, got {max_lits}")
    if n_vars < 0:
        raise ValueError("variable count must not be negative")
    if n_clauses < 0:
        raise ValueError("clause count must not be negative")
    seeding = seed_tautologies and Mod.STAR in ops
    if seeding and n_vars < 1:
        raise ValueError("seeding tautologies needs at least one variable")
    mods = [Mod.NONE, *sorted(ops)]
    variables = [f"x{i + 1}" for i in range(n_vars)]
    clauses = []
    for _ in range(max(n_clauses, 1)):
        count = 1 + _below(rng.getrandbits, max_lits)  # randint(1, max_lits)
        picked = _pick_slots(rng, variables, mods, count)
        lits = [Lit(v, m, rng.random() < 0.5) for v, m in picked]
        if seeding and rng.random() < 0.5:
            v = rng.choice(variables)
            lits = [l for l in lits if l.var != v]
            lits += [Lit(v, Mod.STAR, False), Lit(v, Mod.NONE, True)]
        clauses.append(Clause(lits))
    occurring = sorted(set().union(*[c.vars() for c in clauses]))
    initial = tuple(v for v in occurring if rng.random() < 0.25)
    return SnfFormula(ops, initial, tuple(clauses))
