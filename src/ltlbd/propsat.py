"""Propositional CNF backends.

Atoms are structural: a plain stand-in for a variable, a global stand-in for
its always-literal, or a labelled world copy.  Solvers: linear Horn-SAT with
minimal models, implication-graph 2-SAT, an exhaustive scanner used as a test
oracle, and a complete clause search that returns the lexicographically
first model for a given decision order.  Every solver and
:func:`to_dimacs` number the atoms in one place (``_numbered``), and
Horn-SAT, the scanner and the search run a kernel of :mod:`ltlbd._kernels`
on those integer clauses.  The oracles of :mod:`ltlbd.oracle` build integer
clauses themselves and call the search kernel directly, without atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from . import _kernels


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


@dataclass(frozen=True)
class PropCnf:
    """A conjunction of clauses; each clause a tuple of signed atoms."""

    clauses: tuple[tuple[PLit, ...], ...]

    def __init__(self, clauses: Iterable[Iterable[PLit]] = ()):
        norm = tuple(tuple(dict.fromkeys(tuple(l) for l in c)) for c in clauses)
        object.__setattr__(self, "clauses", norm)

    @classmethod
    def from_normal(cls, clauses: tuple) -> "PropCnf":
        """Wraps clauses already in normal form (a tuple of tuples of
        distinct ``(atom, positive)`` pairs) without copying them."""
        cnf = object.__new__(cls)
        object.__setattr__(cnf, "clauses", clauses)
        return cnf

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
    """``(atoms, lits, starts)``: the sorted atoms of ``cnf`` and its clauses
    in the kernels' flat layout, atom ``atoms[i]`` as literal ±(i+1)."""
    atoms = cnf.atoms()
    idx = {a: i + 1 for i, a in enumerate(atoms)}
    lits = []
    starts = [0]
    for c in cnf.clauses:
        for a, pos in c:
            lits.append(idx[a] if pos else -idx[a])
        starts.append(len(lits))
    return atoms, lits, starts


def brute_sat(cnf: PropCnf) -> Model:
    """Exhaustive oracle: first satisfying assignment in canonical atom
    order (value 0 before 1), or None.  Limited to 24 atoms."""
    atoms, lits, starts = _numbered(cnf)
    n = len(atoms)
    if n > 24:
        raise ValueError(f"brute_sat limited to 24 atoms, got {n}")
    found, mask = _kernels.brute_scan(n, lits, starts)
    if not found:
        return None
    return {a: bool((mask >> (n - 1 - i)) & 1) for i, a in enumerate(atoms)}


def horn_sat(cnf: PropCnf) -> Model:
    """Linear Horn solver returning the minimal model.

    Every atom true in the returned model is forced; all others are false.
    Tautological clauses are skipped.  Raises ValueError on non-Horn input.
    """
    atoms, lits, starts = _numbered(cnf)
    n = len(atoms)
    heads, counts, occ, facts = _kernels.horn_index(n, lits, starts)
    values = [0] * n
    if not _kernels.horn_forward(heads, counts, occ, values, facts):
        return None
    return {a: bool(values[i]) for i, a in enumerate(atoms)}


def two_sat(cnf: PropCnf) -> Model:
    """2-SAT via strongly connected components of the implication graph.

    Unsatisfiable iff some atom shares a component with its negation; the
    model sets an atom true iff its node's component is found before the
    negation's (components complete in reverse topological order).
    """
    if not cnf.is_krom:
        raise ValueError("two_sat requires a Krom formula")
    atoms, lits, starts = _numbered(cnf)

    def node(lit):  # 2i for literal i+1, 2i+1 for its negation
        return 2 * lit - 2 if lit > 0 else -2 * lit - 1

    adj: list[list[int]] = [[] for _ in range(2 * len(atoms))]
    for ci in range(len(starts) - 1):
        c = lits[starts[ci]:starts[ci + 1]]
        if len(c) == 0:
            return None
        if len(c) == 1:
            adj[node(-c[0])].append(node(c[0]))
        else:
            a, b = c
            adj[node(-a)].append(node(b))
            adj[node(-b)].append(node(a))

    comp = _tarjan_scc(adj)
    model = {}
    for i, a in enumerate(atoms):
        cp, cn = comp[2 * i], comp[2 * i + 1]
        if cp == cn:
            return None
        model[a] = cp < cn
    return model


def _tarjan_scc(adj: list[list[int]]) -> list[int]:
    """Component ids in completion order, iteratively (no recursion)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    n_comp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ei < len(adj[v]):
                w = adj[v][ei]
                ei += 1
                if index[w] == -1:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comp
                    if w == v:
                        break
                n_comp += 1
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comp


def solve_cnf(cnf: PropCnf, branch_first: Iterable[Atom] = ()) -> Model:
    """Complete deterministic search for arbitrary CNF.

    Decisions follow ``branch_first`` in the given order (remaining atoms
    appended in canonical order), value false before true, so the returned
    model is lexicographically minimal for that order.
    """
    atoms, lits, starts = _numbered(cnf)
    n = len(atoms)
    position = {a: i for i, a in enumerate(atoms)}
    head = [position[a] for a in branch_first if a in position]
    seen = set(head)
    order = head + [i for i in range(n) if i not in seen]
    status, values = _kernels.search_solve(n, lits, starts, order)
    if not status:
        return None
    return {a: bool(values[i]) for i, a in enumerate(atoms)}


def to_dimacs(cnf: PropCnf) -> tuple[str, list[str]]:
    """DIMACS text plus the sidecar name table (line i+1 names atom i+1)."""
    atoms, lits, starts = _numbered(cnf)
    lines = [f"p cnf {len(atoms)} {len(cnf.clauses)}"]
    for ci in range(len(starts) - 1):
        lines.append(" ".join(map(str, lits[starts[ci]:starts[ci + 1]] + [0])))
    names = [f"{i + 1} {a.display()}" for i, a in enumerate(atoms)]
    return "\n".join(lines) + "\n", names
