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
"""

from __future__ import annotations

from typing import Optional

from . import _kernels
from .evaluation import propositionalize, relabel_copy
from .formula import Mod, SnfFormula
from .interp import (AssignmentSet, FiniteWindowInterpretation,
                     from_assignment_set, models)
from .propsat import PropCnf, copy_atom, global_atom, solve_cnf

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
    encoding strategy returns the lexicographically minimal solver model.
    """
    if not phi.operators <= {Mod.STAR}:
        raise ValueError("star oracle handles the always-only fragment")
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
    lvar, lstar, lsign = [], [], []
    starts = [0]
    for c in phi.clauses:
        for lit in c:
            lvar.append(index[lit.var])
            lstar.append(1 if lit.mod is Mod.STAR else 0)
            lsign.append(1 if lit.positive else 0)
        starts.append(len(lvar))
    psi_mask = 0
    for v in phi.initial:
        psi_mask |= 1 << (n - 1 - index[v])
    found, _, a0, wit = _kernels.star_scan(n, lvar, lstar, lsign, starts,
                                           psi_mask)
    if not found:
        return None

    def row(mask: int) -> dict:
        return {v: bool((mask >> (n - 1 - i)) & 1)
                for i, v in enumerate(variables)}

    members = [row(a0)]
    members.extend(row(w) for w in wit if w >= 0)
    return from_assignment_set(AssignmentSet(tuple(members), members[0]))


def _star_by_encoding(phi: SnfFormula) -> Optional[FiniteWindowInterpretation]:
    variables = sorted(phi.variables)
    rows = len(variables) + 1  # row 1 designated, row 2+i witnesses variable i
    base = propositionalize(phi.clauses)
    clauses = []
    for r in range(1, rows + 1):
        clauses.extend(relabel_copy(base, variables, r, "w").clauses)
    for v in phi.initial:
        clauses.append(((copy_atom(v, 1, "w"), True),))
    for i, v in enumerate(variables):
        for r in range(1, rows + 1):
            clauses.append(((global_atom(v), False),
                            (copy_atom(v, r, "w"), True)))
        # when the always-atom is false, its dedicated row refutes it
        clauses.append(((global_atom(v), True),
                        (copy_atom(v, 2 + i, "w"), False)))
    order = [global_atom(v) for v in variables]
    for r in range(1, rows + 1):
        order.extend(copy_atom(v, r, "w") for v in variables)
    model = solve_cnf(PropCnf(clauses), branch_first=order)
    if model is None:
        return None
    member_rows = [
        {v: model[copy_atom(v, r, "w")] for v in variables}
        for r in range(1, rows + 1)
    ]
    return from_assignment_set(
        AssignmentSet(tuple(member_rows), member_rows[0]))


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
    n_rows = width + 3
    if n_rows * max(len(variables), 1) > WINDOW_CELL_LIMIT:
        raise ValueError(
            f"window budget exceeded: {n_rows} rows x {len(variables)} "
            f"variables > {WINDOW_CELL_LIMIT} cells")

    def row_of(world: int) -> int:  # row ids: 1 left, 2..width+2 window, +3 right
        if world < 0:
            return 1
        if world > width:
            return width + 3
        return world + 2

    def cell(v: str, row: int):
        return copy_atom(v, row, "w")

    def fut(v: str, world: int):
        return copy_atom(v, world + 3, "F")

    def past(v: str, world: int):
        return copy_atom(v, world + 3, "P")

    clauses = []
    star_vars = sorted({l.var for c in phi.clauses for l in c
                        if l.mod is Mod.STAR})
    fut_vars = sorted({l.var for c in phi.clauses for l in c
                       if l.mod is Mod.FUT})
    past_vars = sorted({l.var for c in phi.clauses for l in c
                        if l.mod is Mod.PAST})
    eval_worlds = range(-2, width + 3)

    # ground every clause at every evaluation world
    for c in phi.clauses:
        for w in eval_worlds:
            ground = []
            for lit in c:
                if lit.mod is Mod.NONE:
                    atom = cell(lit.var, row_of(w))
                elif lit.mod is Mod.STAR:
                    atom = global_atom(lit.var)
                elif lit.mod is Mod.FUT:
                    atom = fut(lit.var, w)
                else:
                    atom = past(lit.var, w)
                ground.append((atom, lit.positive))
            clauses.append(tuple(ground))

    # initial facts hold at world 0
    for v in phi.initial:
        clauses.append(((cell(v, row_of(0)), True),))

    # always-atom: conjunction of all rows
    for v in star_vars:
        wide = [(global_atom(v), True)]
        for r in range(1, n_rows + 1):
            clauses.append(((global_atom(v), False), (cell(v, r), True)))
            wide.append((cell(v, r), False))
        clauses.append(tuple(wide))

    # future chain: at world w the variable holds at every later world
    for v in fut_vars:
        top = width + 2
        clauses.append(((fut(v, top), False), (cell(v, row_of(top + 1)), True)))
        clauses.append(((fut(v, top), True), (cell(v, row_of(top + 1)), False)))
        for w in range(top - 1, -3, -1):
            nxt = cell(v, row_of(w + 1))
            clauses.append(((fut(v, w), False), (nxt, True)))
            clauses.append(((fut(v, w), False), (fut(v, w + 1), True)))
            clauses.append(((fut(v, w), True), (nxt, False),
                            (fut(v, w + 1), False)))

    # past chain, mirrored
    for v in past_vars:
        bot = -2
        clauses.append(((past(v, bot), False), (cell(v, row_of(bot - 1)), True)))
        clauses.append(((past(v, bot), True), (cell(v, row_of(bot - 1)), False)))
        for w in range(bot + 1, width + 3):
            prv = cell(v, row_of(w - 1))
            clauses.append(((past(v, w), False), (prv, True)))
            clauses.append(((past(v, w), False), (past(v, w - 1), True)))
            clauses.append(((past(v, w), True), (prv, False),
                            (past(v, w - 1), False)))

    order = [cell(v, r) for r in range(1, n_rows + 1) for v in variables]
    model = solve_cnf(PropCnf(clauses), branch_first=order)
    if model is None:
        return None
    rows = [{v: model.get(cell(v, r), False) for v in variables}
            for r in range(1, n_rows + 1)]
    result = FiniteWindowInterpretation(
        left=rows[0], window=tuple(rows[1:-1]), lo=0, right=rows[-1], start=0)
    if not models(result, phi):
        raise AssertionError("window witness failed the model check")
    return result
