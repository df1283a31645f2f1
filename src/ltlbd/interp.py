"""Eventually-constant temporal interpretations over the integers.

An interpretation is frozen to one assignment on every world left of a finite
window, explicit inside the window, and frozen to another assignment right of
it.  Every model this toolkit constructs or searches for has this shape.

Clause values stabilise two worlds beyond each window edge: a world below
``lo - 2`` sees what ``lo - 2`` sees now, before and after (the worlds between
are all ``left``), and likewise above ``hi + 2``.  So literals are evaluated
bit-parallel over the worlds ``lo - 2`` to ``hi + 2``: bit ``t`` of a column or
mask is world ``lo - 2 + t``, ``w + 4`` bits for a window of width ``w``, and
a clause holds iff the OR of its literals' masks is full.
"""

from __future__ import annotations

from typing import Optional

from .formula import Lit, Mod, SnfFormula, _check_name, _Record

# bound once for the per-literal checks: class lookups of enum members are slow
_NONE, _FUT, _STAR = Mod.NONE, Mod.FUT, Mod.STAR

WorldAssignment = dict  # Mapping[str, bool], total on the variable set in use


def _cells(row) -> WorldAssignment:
    """A copy of ``row`` with bool cells; ValueError on a cell other than
    0, 1, False or True."""
    out = dict(row)
    if not {*map(type, out.values())} <= {bool}:  # else already all bools
        for v, b in out.items():
            if type(b) not in (bool, int) or b not in (0, 1):
                raise ValueError(f"cell {v!r} must be 0 or 1, got {b!r}")
            out[v] = bool(b)
    return out


class FiniteWindowInterpretation(_Record):
    """Worlds below ``lo`` carry ``left``, worlds above ``hi`` carry
    ``right``, and ``window[z - lo]`` is the assignment at world ``z``.

    ``start`` is the world where the initial facts are evaluated; the
    satisfaction relation is shift-invariant so any window placement with
    ``lo <= start <= hi`` is admissible.
    """

    __slots__ = ("left", "window", "lo", "right", "start")

    left: WorldAssignment
    window: tuple[WorldAssignment, ...]
    lo: int
    right: WorldAssignment
    start: int

    def __init__(self, left: WorldAssignment, window, lo: int,
                 right: WorldAssignment, start: int = 0):
        window = tuple(map(_cells, window))
        left = _cells(left)
        right = _cells(right)
        if not window:
            raise ValueError("window must contain at least one world")
        if not lo <= start <= lo + len(window) - 1:
            raise ValueError("start world must lie inside the window")
        keys = set(left)
        for v in keys:
            _check_name(v)
        for row in window:
            if set(row) != keys:
                raise ValueError("all worlds must assign the same variables")
        if set(right) != keys:
            raise ValueError("all worlds must assign the same variables")
        self._fill(left, window, lo, right, start)

    @property
    def hi(self) -> int:
        return self.lo + len(self.window) - 1

    def row(self, world: int) -> WorldAssignment:
        """Assignment holding at an arbitrary integer world (no copy)."""
        if world < self.lo:
            return self.left
        if world > self.hi:
            return self.right
        return self.window[world - self.lo]


def _check_world(m: FiniteWindowInterpretation, world: int) -> None:
    if not m.lo - 2 <= world <= m.hi + 2:
        raise ValueError(
            f"world {world} outside sentinel range [{m.lo - 2}, {m.hi + 2}]")


def holds_literal(m: FiniteWindowInterpretation, world: int, lit: Lit) -> bool:
    """Evaluate one temporal literal at an integer world.

    Future/past literals quantify over the frozen regions through the edge
    assignments; values are constant for worlds at least two outside the
    window, which is why callers never need to look further.
    """
    _check_world(m, world)
    if lit.var not in m.left:
        raise ValueError(f"unknown variable {lit.var!r}")
    full = (1 << (len(m.window) + 4)) - 1
    mask = _literal_mask(m, lit, _column(m, lit.var), full)
    return bool(mask >> (world - m.lo + 2) & 1)


def _column(m: FiniteWindowInterpretation, v: str) -> int:
    """Bit ``t`` is the value of ``v`` at world ``lo - 2 + t``."""
    col = 0
    for row in reversed(m.window):
        col = col << 1 | row[v]
    return (3 * m.right[v]) << (len(m.window) + 2) | col << 2 | 3 * m.left[v]


def _literal_mask(m: FiniteWindowInterpretation, lit: Lit, col: int,
                  full: int) -> int:
    """Bit ``t`` is the value of ``lit`` at world ``lo - 2 + t``."""
    mod = lit.mod
    if mod is _NONE:
        mask = col
    elif col == full:
        mask = full
    elif mod is _STAR:
        mask = 0
    elif mod is _FUT:
        # the worlds from the last false one up, if the right region holds
        top = (full ^ col).bit_length() - 1
        mask = full >> top << top if m.right[lit.var] else 0
    else:
        zeros = full ^ col
        mask = ((zeros & -zeros) << 1) - 1 if m.left[lit.var] else 0
    return mask if lit.positive else mask ^ full


def first_violation(m: FiniteWindowInterpretation,
                    phi: SnfFormula) -> Optional[tuple]:
    """What the interpretation falsifies first, or None if it models the
    formula.

    That is ``(v, m.start)`` for the first initial fact ``v`` that is false
    at the start world, else ``(clause, world)`` for the first clause in
    formula order and the lowest world where it fails.  Every clause is
    checked at every world from two below the window to two above it, which
    covers all integers by stabilisation.
    """
    missing = set(phi.variables) - set(m.left)
    if missing:
        raise ValueError(f"interpretation lacks variables: {sorted(missing)}")
    at_start = m.row(m.start)
    for v in phi.initial:
        if not at_start[v]:
            return v, m.start
    full = (1 << (len(m.window) + 4)) - 1
    columns, masks = {}, {}
    for clause in phi.clauses:
        union = 0
        for lit in clause:
            mask = masks.get(lit)
            if mask is None:
                col = columns.get(lit.var)
                if col is None:
                    col = columns[lit.var] = _column(m, lit.var)
                mask = masks[lit] = _literal_mask(m, lit, col, full)
            union |= mask
            if union == full:
                break
        else:
            zeros = full ^ union
            return clause, m.lo - 2 + (zeros & -zeros).bit_length() - 1
    return None


def models(m: FiniteWindowInterpretation, phi: SnfFormula) -> bool:
    """True iff the interpretation satisfies the formula, that is iff
    :func:`first_violation` finds nothing."""
    return first_violation(m, phi) is None


class AssignmentSet(_Record):
    """A nonempty set of world assignments with a designated initial one."""

    __slots__ = ("members", "initial")

    members: tuple[WorldAssignment, ...]
    initial: WorldAssignment

    def __init__(self, members, initial: WorldAssignment):
        uniq = []
        seen = set()
        for a in members:
            key = tuple(sorted(a.items()))
            if key not in seen:
                seen.add(key)
                uniq.append(dict(a))
        if not uniq:
            raise ValueError("assignment set must be nonempty")
        if tuple(sorted(initial.items())) not in seen:
            raise ValueError("designated assignment must belong to the set")
        self._fill(tuple(uniq), dict(initial))


def _bitvec(a: WorldAssignment) -> tuple:
    return tuple(a[v] for v in sorted(a))


def from_assignment_set(aset: AssignmentSet) -> FiniteWindowInterpretation:
    """Lay an assignment set out as an interpretation: the designated
    assignment first (worlds 0 and all worlds left of it), the remaining
    members in lexicographic bit order, and the last row frozen rightwards."""
    a0 = aset.initial
    a0_key = tuple(sorted(a0.items()))
    rest = [a for a in aset.members if tuple(sorted(a.items())) != a0_key]
    rest.sort(key=_bitvec)
    rows = [a0] + rest
    return FiniteWindowInterpretation(
        left=a0, window=tuple(rows), lo=0, right=rows[-1], start=0)
