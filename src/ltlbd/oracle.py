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

The window encoding folds each frozen variable: one whose clauses hold
``~v | [F]v`` and ``~v | [P]v``, or ``~v | [*]v``.  Every cell is the cell of
some evaluation world, so in every model such a v holds everywhere or
nowhere, and each of its modal literals means v.  It gets one atom,
numbered at its left-edge cell, which every cell and modal literal of it
reads; its modal pairs get no atoms, its gadgets become valid and are
dropped, and a clause whose literals all keep their atom across the worlds
is grounded once.  The models of the two encodings correspond one to one,
and the witness does not change: the left edge comes first in the cell
order, so two cell assignments that first differ at a folded cell already
differ at that variable's left-edge cell, and the folded decision order
ranks the cell assignments of models as the full one does.

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

from itertools import repeat
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
#: this many clauses; the reduce-3col inputs ground at most 2,732.
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


def _columns(phi: SnfFormula, codes):
    """Per clause of ``phi``, the list of its literals' ``codes(lit)``, a
    literal's signed atom in every row or world; ``codes`` runs once per
    distinct literal.  ``zip(*cols)`` is then the clause in every copy."""
    column = {}
    for c in phi.clauses:
        cols = []
        for lit in c:
            codes_at = column.get(lit)
            if codes_at is None:
                codes_at = column[lit] = codes(lit)
            cols.append(codes_at)
        yield cols


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

    # every clause in row 1, then every clause in row 2, and so on; a clause
    # without literals is empty in every row
    copies = [zip(*cols) if cols else repeat((), n + 1)
              for cols in _columns(phi, codes)]
    clauses = [list(g) for row in zip(*copies) for g in row]
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
    encoding gives a variable that its clauses hold constant across time
    one atom, and defines every other modal atom by polarity (see the
    module docstring).  Raises ValueError on a negative width or one over
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
    none, star = Mod.NONE, Mod.STAR  # bound once: enum lookups are slow

    # ``signs`` holds, per modal (operator, variable) pair in order of first
    # occurrence, 1 if it occurs positively, 2 if negatively, 3 if both;
    # ``halves`` ORs the operators of each variable's clauses ~v | [op]v,
    # whose canonical order puts ~v first, and Mod.PAST | Mod.FUT is STAR
    signs, halves = {}, {}
    for c in phi.clauses:
        for lit in c:
            if lit.mod is not none:
                key = lit.mod, lit.var
                signs[key] = signs.get(key, 0) | (1 if lit.positive else 2)
        if len(c) == 2:
            a, b = c
            if (a.var == b.var and a.mod is none and not a.positive
                    and b.positive):
                halves[a.var] = halves.get(a.var, 0) | b.mod
    frozen = {v for v, h in halves.items() if h == star}

    # atoms: the left edge over every variable, then rows 1..n_rows-1 over
    # the variables that are not frozen; cells[v][r] is v's atom in row r,
    # which for a frozen variable is its left-edge atom in every row
    thawed = [v for v in variables if v not in frozen]
    nf = len(thawed)
    cells = {v: [i] * n_rows for i, v in enumerate(variables, 1)}
    for j, v in enumerate(thawed, nv + 1):
        cells[v][1:] = range(j, j + (n_rows - 1) * nf, nf)
    # then one always-atom, or one future/past atom per evaluation world,
    # for each modal pair of a variable that is not frozen
    base, n_atoms = {}, nv + (n_rows - 1) * nf
    for key in signs:
        if key[1] not in frozen:
            base[key] = n_atoms
            n_atoms += 1 if key[0] is star else n_worlds
    # the row of each world -3..width+3: the edge rows 0 and n_rows-1 hold
    # every world left and right of the window
    row_of = [0] * 3 + list(range(1, n_rows - 1)) + [n_rows - 1] * 3

    def codes(lit) -> list:
        """The literal's signed atom at every evaluation world."""
        v = lit.var
        if lit.mod is none or v in frozen:
            at = cells[v]
            a = [at[r] for r in row_of[1:-1]]
        elif lit.mod is star:
            a = [base[star, v] + 1] * n_worlds
        else:
            first = base[lit.mod, v] + 1
            a = list(range(first, first + n_worlds))
        return a if lit.positive else [-x for x in a]

    # each clause at every evaluation world, unbuilt.  Two literals share an
    # atom at one world iff they share it at every world, so keying them by
    # their first atom merges repeated literals (x | [F]x with x frozen is
    # [a], not [a, a]); a clause with an atom in both signs is valid at
    # every world and dropped; one whose literals all keep their atom (a
    # frozen variable's or an always-atom) is grounded once.  Every other
    # literal's first and last atoms differ.  An atom rarely repeats, so the
    # keyed copy is built only when one does.
    grounded, n_clauses = [], len(phi.initial)
    for cols in _columns(phi, codes):
        first = [a[0] for a in cols]
        if len(set(first)) < len(first):
            cols = list({a[0]: a for a in cols}.values())
            first = [a[0] for a in cols]
        if any(-x in first for x in first):
            continue
        if all(a[0] == a[-1] for a in cols):
            grounded.append((first,))
            n_clauses += 1
        else:
            grounded.append(zip(*cols))
            n_clauses += n_worlds
    _check_clause_budget(n_clauses + sum(
        (signs[key] & 1) * (n_rows if key[0] is star else 2 * n_worlds - 1)
        + (signs[key] >> 1) * (1 if key[0] is star else n_worlds)
        for key in base))

    # the clauses, then the initial facts at world 0, then the definitions
    clauses = []
    for g in grounded:
        clauses += map(list, g)
    clauses.extend([cells[v][1]] for v in phi.initial)

    for (mod, v), a in base.items():
        sign, at = signs[mod, v], cells[v]
        if mod is star:  # always-atom: conjunction of all rows
            if sign & 1:
                clauses += [[-a - 1, x] for x in at]
            if sign & 2:
                clauses.append([a + 1] + [-x for x in at])
            continue
        # future (past) atom at w: v holds at every later (earlier) world;
        # beyond the last (first) evaluation world only the frozen edge
        # remains, so that world's atom has no neighbour to chain to
        step = 1 if mod is Mod.FUT else -1
        atoms = range(a + 1, a + n_worlds + 1)
        nxt = [at[r] for r in row_of[1 + step:len(row_of) - 1 + step]]
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
    rows = [{v: bool(values[cells[v][r] - 1]) for v in variables}
            for r in range(n_rows)]
    result = FiniteWindowInterpretation(
        left=rows[0], window=tuple(rows[1:-1]), lo=0, right=rows[-1], start=0)
    if not models(result, phi):
        raise AssertionError("window witness failed the model check")
    return result
