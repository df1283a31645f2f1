"""Ground-truth satisfiability oracles.

For the always-only fragment the oracle is exact: satisfiability is
equivalent to the existence of a set of world assignments whose unanimous
variables realise the always-literals, with a designated member carrying the
initial facts.  Small instances scan the candidate global assignments
directly; larger ones solve a propositional encoding with one world copy per
variable plus one, which realises the same bounded-witness characterisation.

For formulas with past/future operators the oracle searches eventually
constant interpretations over a window of requested width.  A negative
answer there is only "no model within this window", never an
unsatisfiability claim.

Both encodings are integer clauses (literals ±(atom+1)) at fixed atom
offsets, solved by :func:`ltlbd._kernels.search_solve`, which returns the
lexicographically first model for its decision order.  The star encoding
decides the always-atoms, then rows 1..n+1; the window encoding decides the
cells row by row, then the atoms of its modal literals.  Each row is over
the sorted variables.  This module shares no code with backdoor evaluation,
which it cross-checks.
"""

from __future__ import annotations

from typing import Optional

from . import _kernels
from .formula import Mod, SnfFormula
from .interp import (AssignmentSet, FiniteWindowInterpretation,
                     from_assignment_set, models)

#: Exhaustive global-candidate scan handles at most this many variables.
SCAN_VAR_LIMIT = 12
#: The encoding-based strategy handles at most this many variables.
STAR_VAR_LIMIT = 64
#: Window search budget: explicit window cells (rows times variables).
WINDOW_CELL_LIMIT = 4096


def star_sat_oracle(phi: SnfFormula) -> Optional[FiniteWindowInterpretation]:
    """Exact satisfiability for the always-only fragment.

    Returns a verified witness interpretation, or None for unsatisfiable.
    The witness is deterministic: the scan strategy returns the first global
    candidate (ascending) with the first qualifying world assignments; the
    encoding strategy returns the lexicographically first model, deciding
    the always-atoms and then rows 1..n+1, each over the sorted variables,
    false before true.  Raises ValueError when the formula declares or holds
    a past or future operator.
    """
    if not phi.operators <= {Mod.STAR}:
        raise ValueError("star oracle handles the always-only fragment")
    allowed = (Mod.NONE, Mod.STAR)  # bound once: enum lookups are slow
    for c in phi.clauses:
        for lit in c:
            if lit.mod not in allowed:
                raise ValueError(
                    f"literal {lit} outside the always-only fragment")
    n = len(phi.variables)
    if n <= SCAN_VAR_LIMIT:
        result = _star_by_scan(phi)
    elif n <= STAR_VAR_LIMIT:
        result = _star_by_encoding(phi)
    else:
        raise ValueError(f"star oracle limited to {STAR_VAR_LIMIT} variables")
    if result is not None and not models(result, phi):
        raise AssertionError("oracle witness failed the model check")
    return result


def _solve(n_atoms: int, clauses: list, order: list) -> Optional[list]:
    """The first model of integer clauses for the decision order ``order``
    (a list of atoms), or None when unsatisfiable.

    The search watches two distinct literals per clause.  No clause repeats
    one: :class:`~ltlbd.formula.Clause` holds distinct literals, and both
    encodings give distinct literals distinct signed atoms."""
    lits, starts = [], [0]
    for c in clauses:
        lits.extend(c)
        starts.append(len(lits))
    status, values = _kernels.search_solve(n_atoms, lits, starts, order)
    return values if status else None


def _star_by_scan(phi: SnfFormula) -> Optional[FiniteWindowInterpretation]:
    variables = sorted(phi.variables)
    n = len(variables)
    index = {v: i for i, v in enumerate(variables)}
    none = Mod.NONE  # bound once: enum lookups are slow
    # atom i: the always-atom of variable i; atom n + i: its plain atom
    lits, starts = [], [0]
    for c in phi.clauses:
        for lit in c:
            a = (n if lit.mod is none else 0) + index[lit.var] + 1
            lits.append(a if lit.positive else -a)
        starts.append(len(lits))
    psi_mask = 0
    for v in phi.initial:
        psi_mask |= 1 << (n - 1 - index[v])
    found, _, a0, wit = _kernels.star_scan(n, lits, starts, psi_mask)
    if not found:
        return None

    def row(mask: int) -> dict:
        return {v: bool((mask >> (n - 1 - i)) & 1)
                for i, v in enumerate(variables)}

    members = [row(a0)]
    members.extend(row(w) for w in wit if w >= 0)
    return from_assignment_set(AssignmentSet(tuple(members), members[0]))


def _star_by_encoding(phi: SnfFormula) -> Optional[FiniteWindowInterpretation]:
    # atom r*n + i: the always-atom of variable i for r = 0, else its value
    # in row r; row 1 is designated, row 2+i refutes a false always-atom i
    variables = sorted(phi.variables)
    n = len(variables)
    col = {v: i for i, v in enumerate(variables)}
    rows = range(1, n + 2)
    none = Mod.NONE  # bound once: enum lookups are slow

    def code(lit, r: int) -> int:
        a = (r * n if lit.mod is none else 0) + col[lit.var]
        return a + 1 if lit.positive else -a - 1

    clauses = [[code(lit, r) for lit in c] for r in rows for c in phi.clauses]
    clauses.extend([n + col[v] + 1] for v in phi.initial)
    for i in range(n):
        clauses.extend([-i - 1, r * n + i + 1] for r in rows)
        clauses.append([i + 1, -(2 + i) * n - i - 1])
    values = _solve(n * (n + 2), clauses, list(range(n * (n + 2))))
    if values is None:
        return None
    members = tuple({v: bool(values[r * n + i])
                     for i, v in enumerate(variables)} for r in rows)
    return from_assignment_set(AssignmentSet(members, members[0]))


def window_sat_oracle(phi: SnfFormula,
                      width: int) -> Optional[FiniteWindowInterpretation]:
    """Bounded search over eventually constant interpretations with window
    worlds 0..width plus the two frozen edge assignments.

    Returns the first satisfying interpretation in lexicographic order over
    the cell grid (left edge, then worlds 0..width, then right edge, each
    row over sorted variables, false before true), or None when no model
    exists within the window.  None is not an unsatisfiability claim.
    """
    if not phi.operators <= set((Mod.PAST, Mod.FUT, Mod.STAR)):
        raise ValueError("unsupported operator set")
    if width < 0:
        raise ValueError("window width must be nonnegative")
    variables = sorted(phi.variables)
    nv = len(variables)
    n_rows = width + 3
    if n_rows * max(nv, 1) > WINDOW_CELL_LIMIT:
        raise ValueError(
            f"window budget exceeded: {n_rows} rows x {nv} "
            f"variables > {WINDOW_CELL_LIMIT} cells")
    col = {v: i for i, v in enumerate(variables)}
    worlds = range(-2, width + 3)  # the worlds every clause is grounded at
    none, star = Mod.NONE, Mod.STAR  # bound once: enum lookups are slow

    def row(world: int) -> int:  # row 0 and row n_rows-1: the edges
        return min(max(world + 1, 0), n_rows - 1) * nv

    def cell(v: str, world: int) -> int:
        return row(world) + col[v]

    row_at = [row(w) for w in worlds]  # first cell atom of each world's row

    # atoms after the cells: one always-atom, or one future/past atom per
    # evaluation world, for each modal (operator, variable) pair
    base, n_atoms = {}, n_rows * nv
    for c in phi.clauses:
        for lit in c:
            if lit.mod is not none and (lit.mod, lit.var) not in base:
                base[lit.mod, lit.var] = n_atoms
                n_atoms += 1 if lit.mod is star else len(worlds)

    def codes(lit) -> list:
        """The literal's signed atom at every evaluation world."""
        if lit.mod is none:
            a = [r + col[lit.var] + 1 for r in row_at]
        elif lit.mod is star:
            a = [base[star, lit.var] + 1] * len(worlds)
        else:
            first = base[lit.mod, lit.var] + 1
            a = list(range(first, first + len(worlds)))
        return a if lit.positive else [-x for x in a]

    # every clause at every evaluation world, and initial facts at world 0;
    # a literal's codes are built once, and a clause without literals still
    # yields one empty clause per world
    column = {}
    clauses = []
    for c in phi.clauses:
        cols = []
        for lit in c:
            codes_at = column.get(lit)
            if codes_at is None:
                codes_at = column[lit] = codes(lit)
            cols.append(codes_at)
        if cols:
            clauses.extend(map(list, zip(*cols)))
        else:
            clauses.extend([] for _ in worlds)
    clauses.extend([cell(v, 0) + 1] for v in phi.initial)

    for (mod, v), a in base.items():
        if mod is star:  # always-atom: conjunction of all rows
            cells = [r * nv + col[v] + 1 for r in range(n_rows)]
            clauses.extend([-a - 1, x] for x in cells)
            clauses.append([a + 1] + [-x for x in cells])
            continue
        # future (past) atom at w: v holds at every later (earlier) world;
        # beyond the last evaluation world only the frozen edge remains
        step = 1 if mod is Mod.FUT else -1
        for w in worlds:
            here, nxt = a + w + 3, cell(v, w + step) + 1
            clauses.append([-here, nxt])
            if w + step in worlds:
                chained = here + step
                clauses.append([-here, chained])
                clauses.append([here, -nxt, -chained])
            else:
                clauses.append([here, -nxt])

    values = _solve(n_atoms, clauses, list(range(n_atoms)))
    if values is None:
        return None
    rows = [{v: bool(values[r * nv + i]) for i, v in enumerate(variables)}
            for r in range(n_rows)]
    result = FiniteWindowInterpretation(
        left=rows[0], window=tuple(rows[1:-1]), lo=0, right=rows[-1], start=0)
    if not models(result, phi):
        raise AssertionError("window witness failed the model check")
    return result
