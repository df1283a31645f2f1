"""Ground-truth satisfiability oracles.

For the always-only fragment the oracle is exact: satisfiability is
equivalent to the existence of a set of world assignments whose unanimous
variables realise the always-literals, with a designated member carrying the
initial facts.  Small instances scan the candidate global assignments in
ascending order, as a depth-first walk over the always-atoms that cuts every
prefix below which no candidate qualifies
(:func:`ltlbd._kernels.star_scan`); larger ones solve a propositional
encoding with one world copy per variable plus one, which realises the same
bounded-witness characterisation.

For formulas with past/future operators the oracle searches eventually
constant interpretations over a window of requested width.  A negative
answer there is only "no model within this window", never an
unsatisfiability claim.  Both oracles refuse a formula that
:func:`~ltlbd.formula.check_operators` refuses.

Both encodings are integer clauses (literals ±(atom+1)) at fixed atom
offsets, solved by :func:`ltlbd._kernels.search_solve`, which decides atoms
in index order and so returns the lexicographically first model in that
order.  Each encoding's atom layout is therefore its decision order: the
star encoding numbers the always-atoms first, then rows 1..n+1; the window
encoding the cells row by row, then the atoms of its modal literals.  Each
row is over the sorted variables.  Both encodings count their clauses
before building any.  This module shares no code with backdoor evaluation,
which it cross-checks.

The window encoding defines its modal atoms by polarity (Plaisted and
Greenbaum, "A structure-preserving clause form translation", JSC 1986): an
atom that occurs positively in the formula implies its meaning, one that
occurs negatively is implied by it, and one with both signs gets both
directions.  The witness does not change: every cell atom is numbered before
every modal atom, so the witness is the lexicographically first cell
assignment that extends to a model of the encoding, and the pruned and the
full encoding admit the same such assignments (a model of the full one is a
model of the pruned one; in a model of the pruned one, setting every modal
atom to its meaning keeps each clause true, since a positive occurrence can
only have been true where the meaning is, and a negative one only false
where it is).  So every witness and every None are those of the full
definitions.  The star encoding decides its always-atoms first, so its
witness depends on their values; it keeps the full definitions.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

from . import _kernels
from .formula import Mod, SnfFormula, check_operators
from .interp import (AssignmentSet, FiniteWindowInterpretation,
                     from_assignment_set, models)

#: Exhaustive global-candidate scan handles at most this many variables.
SCAN_VAR_LIMIT = 12
#: The encoding-based strategy handles at most this many variables.
STAR_VAR_LIMIT = 64
#: Window search budget: explicit window cells (rows times variables).
WINDOW_CELL_LIMIT = 4096
#: Both encodings refuse a formula whose grounded encoding would exceed
#: this many clauses; the reduce-3col inputs ground at most 6,500.
ENCODING_CLAUSE_LIMIT = 200_000


def star_sat_oracle(phi: SnfFormula) -> Optional[FiniteWindowInterpretation]:
    """Exact satisfiability for the always-only fragment.

    Returns a verified witness interpretation, or None for unsatisfiable.
    The witness is deterministic: the scan strategy returns the first global
    candidate (ascending) with the first qualifying world assignments; the
    encoding strategy returns the lexicographically first model, deciding
    the always-atoms and then rows 1..n+1, each over the sorted variables,
    false before true.  Raises ValueError when the formula declares or holds
    a past or future operator (:func:`check_operators`), or is over
    ``STAR_VAR_LIMIT`` variables or ``ENCODING_CLAUSE_LIMIT`` clauses.
    """
    check_operators(phi, (Mod.STAR,))
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


def _star_by_scan(phi: SnfFormula) -> Optional[FiniteWindowInterpretation]:
    variables = sorted(phi.variables)
    n = len(variables)
    index = {v: i for i, v in enumerate(variables)}
    none = Mod.NONE  # bound once: enum lookups are slow
    # atom i: the always-atom of variable i; atom n + i: its plain atom
    clauses = []
    for c in phi.clauses:
        clause = []
        for lit in c:
            a = (n if lit.mod is none else 0) + index[lit.var] + 1
            clause.append(a if lit.positive else -a)
        clauses.append(clause)
    psi_mask = 0
    for v in phi.initial:
        psi_mask |= 1 << (n - 1 - index[v])
    found, _, a0, wit = _kernels.star_scan(n, clauses, psi_mask)
    if not found:
        return None

    def row(mask: int) -> dict:
        return {v: bool((mask >> (n - 1 - i)) & 1)
                for i, v in enumerate(variables)}

    members = [row(a0)]
    members.extend(row(w) for w in wit if w >= 0)
    return from_assignment_set(AssignmentSet(tuple(members), members[0]))


def _check_clause_budget(n_clauses: int) -> None:
    if n_clauses > ENCODING_CLAUSE_LIMIT:
        raise ValueError(f"encoding budget exceeded: {n_clauses} clauses > "
                         f"{ENCODING_CLAUSE_LIMIT}")


def _ground(phi: SnfFormula, codes, copies: int) -> list:
    """Each clause of ``phi`` in each of ``copies`` rows or worlds: per
    clause, one list of signed atoms per copy.  ``codes(lit)`` gives a
    literal's atom in every copy, and runs once per distinct literal; a
    clause without literals yields one empty clause per copy."""
    column = {}
    grounded = []
    for c in phi.clauses:
        cols = []
        for lit in c:
            codes_at = column.get(lit)
            if codes_at is None:
                codes_at = column[lit] = codes(lit)
            cols.append(codes_at)
        grounded.append(list(map(list, zip(*cols))) if cols
                        else [[] for _ in range(copies)])
    return grounded


def _star_by_encoding(phi: SnfFormula) -> Optional[FiniteWindowInterpretation]:
    # atom r*n + i: the always-atom of variable i for r = 0, else its value
    # in row r; row 1 is designated, row 2+i refutes a false always-atom i
    variables = sorted(phi.variables)
    n = len(variables)
    _check_clause_budget(
        len(phi.clauses) * (n + 1) + len(phi.initial) + n * (n + 2))
    col = {v: i + 1 for i, v in enumerate(variables)}  # signed atom in row 0
    rows = range(1, n + 2)
    none = Mod.NONE  # bound once: enum lookups are slow

    def codes(lit) -> list:
        i = col[lit.var]
        a = [r * n + i for r in rows] if lit.mod is none else [i] * (n + 1)
        return a if lit.positive else [-x for x in a]

    # every clause in row 1, then every clause in row 2, and so on
    clauses = [g for row in zip(*_ground(phi, codes, n + 1)) for g in row]
    clauses.extend([n + col[v]] for v in phi.initial)
    for i in range(n):
        clauses.extend([-i - 1, r * n + i + 1] for r in rows)
        clauses.append([i + 1, -(2 + i) * n - i - 1])
    n_atoms = n * (n + 2)
    found, values = _kernels.search_solve(n_atoms, clauses)
    if not found:
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
    exists within the window.  None is not an unsatisfiability claim.  The
    encoding defines each modal atom by polarity (see the module
    docstring).  Raises ValueError on a negative width or one over
    ``WINDOW_CELL_LIMIT`` cells or ``ENCODING_CLAUSE_LIMIT`` clauses.
    """
    check_operators(phi)
    if width < 0:
        raise ValueError("window width must be nonnegative")
    variables = sorted(phi.variables)
    nv = len(variables)
    n_rows = width + 3
    if n_rows * max(nv, 1) > WINDOW_CELL_LIMIT:
        raise ValueError(
            f"window budget exceeded: {n_rows} rows x {nv} "
            f"variables > {WINDOW_CELL_LIMIT} cells")
    n_worlds = width + 5  # the worlds -2..width+2 every clause is grounded at
    # first cell atom of the row of each world -3..width+3: the edge rows 0
    # and n_rows-1 hold every world left and right of the window
    rows_at = ([0] * 3 + [r * nv for r in range(1, n_rows - 1)]
               + [(n_rows - 1) * nv] * 3)
    col = {v: i + 1 for i, v in enumerate(variables)}  # signed atom in row 0
    none, star = Mod.NONE, Mod.STAR  # bound once: enum lookups are slow

    # atoms after the cells: one always-atom, or one future/past atom per
    # evaluation world, for each modal (operator, variable) pair; ``signs``
    # holds 1 if the pair occurs positively, 2 if negatively, 3 if both
    base, signs, n_atoms = {}, {}, n_rows * nv
    for c in phi.clauses:
        for lit in c:
            if lit.mod is not none:
                key = lit.mod, lit.var
                if key not in base:
                    base[key] = n_atoms
                    signs[key] = 0
                    n_atoms += 1 if lit.mod is star else n_worlds
                signs[key] |= 1 if lit.positive else 2
    _check_clause_budget(len(phi.clauses) * n_worlds + len(phi.initial) + sum(
        (sign & 1) * (n_rows if mod is star else 2 * n_worlds - 1)
        + (sign >> 1) * (1 if mod is star else n_worlds)
        for (mod, _), sign in signs.items()))

    def codes(lit) -> list:
        """The literal's signed atom at every evaluation world."""
        if lit.mod is none:
            a = [r + col[lit.var] for r in rows_at[1:-1]]
        elif lit.mod is star:
            a = [base[star, lit.var] + 1] * n_worlds
        else:
            first = base[lit.mod, lit.var] + 1
            a = list(range(first, first + n_worlds))
        return a if lit.positive else [-x for x in a]

    # every clause at every evaluation world, and initial facts at world 0
    clauses = list(chain.from_iterable(_ground(phi, codes, n_worlds)))
    clauses.extend([nv + col[v]] for v in phi.initial)

    for (mod, v), a in base.items():
        i, sign = col[v], signs[mod, v]
        if mod is star:  # always-atom: conjunction of all rows
            cells = range(i, n_rows * nv + 1, nv)
            if sign & 1:
                clauses += [[-a - 1, x] for x in cells]
            if sign & 2:
                clauses.append([a + 1] + [-x for x in cells])
            continue
        # future (past) atom at w: v holds at every later (earlier) world;
        # beyond the last (first) evaluation world only the frozen edge
        # remains, so that world's atom has no neighbour to chain to
        step = 1 if mod is Mod.FUT else -1
        atoms = range(a + 1, a + n_worlds + 1)
        nxt = [r + i for r in rows_at[1 + step:len(rows_at) - 1 + step]]
        end, chained = (-1, slice(-1)) if step > 0 else (0, slice(1, None))
        if sign & 1:  # here -> next cell, here -> here +- 1
            clauses += [[-h, x] for h, x in zip(atoms, nxt)]
            clauses += [[-h, h + step] for h in atoms[chained]]
        if sign & 2:  # the converse
            clauses += [[h, -x, -h - step]
                        for h, x in zip(atoms[chained], nxt[chained])]
            clauses.append([atoms[end], -nxt[end]])

    found, values = _kernels.search_solve(n_atoms, clauses)
    if not found:
        return None
    rows = [{v: bool(values[r * nv + i]) for i, v in enumerate(variables)}
            for r in range(n_rows)]
    result = FiniteWindowInterpretation(
        left=rows[0], window=tuple(rows[1:-1]), lo=0, right=rows[-1], start=0)
    if not models(result, phi):
        raise AssertionError("window witness failed the model check")
    return result
