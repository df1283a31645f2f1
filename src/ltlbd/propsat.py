"""Propositional CNF backends.

Atoms are structural: a plain stand-in for a variable, a global stand-in for
its always-literal, or a labelled world copy.  Solvers: linear Horn-SAT with
minimal models, an exhaustive scanner used as a test oracle, and a complete
clause search that returns the lexicographically first model in canonical
atom order; 2-SAT is that search behind a Krom check.  Every solver and
:func:`to_dimacs` number the atoms in one place (``_numbered``), which turns
each clause into a list of integer literals ±(atom+1), the one clause form
of :mod:`ltlbd._kernels`; Horn-SAT, the scanner and the search run a kernel
on those lists, and :func:`to_dimacs` reads them directly.  The oracles of
:mod:`ltlbd.oracle` build integer clauses themselves and call the kernels
directly, without atoms.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from . import _kernels
from .formula import _Record, _unchecked


class Atom(NamedTuple):
    """One propositional atom; identity is structural on all fields."""

    kind: str  # "plain" | "global" | "copy"
    var: str
    index: int = 0
    label: str = ""

    def display(self) -> str:
        if self.kind == "plain":
            return self.var
        if self.kind == "global":
            return f"[*]{self.var}"
        return f"{self.var}^{self.index}_{self.label}"


def plain_atom(var: str) -> Atom:
    return Atom("plain", var)


def global_atom(var: str) -> Atom:
    return Atom("global", var)


def copy_atom(var: str, index: int, label: str) -> Atom:
    if index < 1:
        raise ValueError("copy index must be >= 1")
    return Atom("copy", var, index, label)


#: A signed atom: (atom, positive).
PLit = tuple


class PropCnf(_Record):
    """A conjunction of clauses; each clause a tuple of signed atoms."""

    __slots__ = ("clauses",)

    clauses: tuple[tuple[PLit, ...], ...]

    def __init__(self, clauses: Iterable[Iterable[PLit]] = ()):
        self._fill(tuple(tuple(dict.fromkeys(tuple(l) for l in c))
                         for c in clauses))

    @classmethod
    def from_normal(cls, clauses: tuple) -> "PropCnf":
        """Wraps clauses already in normal form (a tuple of tuples of
        distinct ``(atom, positive)`` pairs) without copying them."""
        return _unchecked(cls, clauses)

    def atoms(self) -> list[Atom]:
        seen = {a for c in self.clauses for a, _ in c}
        return sorted(seen)

    @property
    def is_horn(self) -> bool:
        return all(sum(1 for _, pos in c if pos) <= 1 for c in self.clauses)

    @property
    def is_krom(self) -> bool:
        return all(len(c) <= 2 for c in self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)


Model = Optional[dict]  # Atom -> bool; None means unsatisfiable


def _numbered(cnf: PropCnf):
    """``(atoms, clauses)``: the sorted atoms of ``cnf`` and its clauses as
    lists of kernel literals, atom ``atoms[i]`` as literal ±(i+1)."""
    atoms = cnf.atoms()
    idx = {a: i + 1 for i, a in enumerate(atoms)}
    return atoms, [[idx[a] if pos else -idx[a] for a, pos in c]
                   for c in cnf.clauses]


def brute_sat(cnf: PropCnf) -> Model:
    """Exhaustive oracle: first satisfying assignment in canonical atom
    order (value 0 before 1), or None.  Limited to 24 atoms."""
    atoms, clauses = _numbered(cnf)
    n = len(atoms)
    if n > 24:
        raise ValueError(f"brute_sat limited to 24 atoms, got {n}")
    found, mask = _kernels.brute_scan(n, clauses)
    if not found:
        return None
    return {a: bool((mask >> (n - 1 - i)) & 1) for i, a in enumerate(atoms)}


def horn_sat(cnf: PropCnf) -> Model:
    """Linear Horn solver returning the minimal model.

    Every atom true in the returned model is forced; all others are false.
    Tautological clauses are skipped.  Raises ValueError on non-Horn input.
    """
    atoms, clauses = _numbered(cnf)
    n = len(atoms)
    heads, counts, occ, facts = _kernels.horn_index(n, clauses)
    values = [0] * n
    if _kernels.horn_forward(heads, counts, occ, values, facts) is None:
        return None
    return {a: bool(values[i]) for i, a in enumerate(atoms)}


def two_sat(cnf: PropCnf) -> Model:
    """2-SAT: :func:`solve_cnf` on a Krom formula, so the model is the
    lexicographically first one in canonical atom order.  Raises
    ValueError on a clause of three or more literals."""
    if not cnf.is_krom:
        raise ValueError("two_sat requires a Krom formula")
    return solve_cnf(cnf)


def solve_cnf(cnf: PropCnf) -> Model:
    """Complete deterministic search for arbitrary CNF.

    Decisions follow the canonical atom order, value false before true, so
    the returned model is the lexicographically minimal one in that order.
    """
    atoms, clauses = _numbered(cnf)
    status, values = _kernels.search_solve(len(atoms), clauses)
    if not status:
        return None
    return {a: bool(values[i]) for i, a in enumerate(atoms)}


def to_dimacs(cnf: PropCnf) -> tuple[str, list[str]]:
    """DIMACS text plus the sidecar name table (line i+1 names atom i+1)."""
    atoms, clauses = _numbered(cnf)
    lines = [f"p cnf {len(atoms)} {len(clauses)}"]
    lines += [" ".join(map(str, c + [0])) for c in clauses]
    names = [f"{i + 1} {a.display()}" for i, a in enumerate(atoms)]
    return "\n".join(lines) + "\n", names
