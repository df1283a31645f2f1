"""Executable reductions from graph 3-colouring to clausal temporal logic.

Two gadget families are generated: an always-only formula with a two-variable
Krom backdoor, and a past/future formula with a four-variable Horn backdoor.
In both directions certificates translate explicitly: a proper colouring
becomes a finite model, and any model projects back to a proper colouring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .formula import Clause, Lit, Mod, SnfFormula, _trusted
from .interp import FiniteWindowInterpretation, models

STAR_KROM = "star-krom"
FP_HORN = "fp-horn"

#: At most this many vertices: a tiny graph file can name any count, and
#: both reductions build a few clauses per vertex.
REDUCE_VERTEX_LIMIT = 10_000


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 1..n; edges stored with i < j."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop on vertex {i}")
            a, b = min(i, j), max(i, j)
            if not 1 <= a < b <= self.n:
                raise ValueError(f"edge ({i},{j}) outside 1..{self.n}")
            norm.add((a, b))
        object.__setattr__(self, "edges", frozenset(norm))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


Colouring = dict  # vertex (int) -> colour in {1, 2, 3}


def is_proper(graph: Graph, colouring: Colouring) -> bool:
    return all(colouring[i] != colouring[j] for i, j in graph.edges)


def brute_3col(graph: Graph) -> Optional[Colouring]:
    """First proper 3-colouring in lexicographic order, or None."""
    if graph.n > 10:
        raise ValueError("brute_3col limited to 10 vertices")
    edges = graph.sorted_edges()
    for combo in itertools.product((1, 2, 3), repeat=graph.n):
        if all(combo[i - 1] != combo[j - 1] for i, j in edges):
            return {v: combo[v - 1] for v in range(1, graph.n + 1)}
    return None


def _check_size(graph: Graph) -> None:
    if graph.n > REDUCE_VERTEX_LIMIT:
        raise ValueError(f"at most {REDUCE_VERTEX_LIMIT} vertices")


def _vertex(i: int) -> str:
    return f"v{i}"


def _edge_vars(i: int, j: int) -> tuple[str, str, str]:
    base = f"e_{i}_{j}"
    return f"{base}_bb", f"{base}_nb", f"{base}_bn"


def threecol_to_star_krom(graph: Graph) -> tuple[SnfFormula, tuple[str, str]]:
    """Always-only formula that is satisfiable iff the graph is
    3-colourable; {b1, b2} is a strong Krom backdoor.

    Per vertex, one clause forces a world where the vertex variable is
    false; the two backdoor variables name that world's colour, and three
    always-variables per edge transport the colour of the lower endpoint to
    the higher one.
    """
    _check_size(graph)
    b1 = Lit("b1")
    b2 = Lit("b2")
    clauses = []
    for i in range(1, graph.n + 1):
        clauses.append(Clause([Lit(_vertex(i), Mod.STAR, False)]))
    for i, j in graph.sorted_edges():
        e_bb, e_nb, e_bn = _edge_vars(i, j)
        vi, vj = Lit(_vertex(i)), Lit(_vertex(j))
        for ev, lit1, lit2 in ((e_bb, b1, b2),
                               (e_nb, b1.negated(), b2),
                               (e_bn, b1, b2.negated())):
            clauses.append(Clause([vi, Lit(ev, Mod.STAR), lit1, lit2]))
            clauses.append(Clause([vj, Lit(ev, Mod.STAR, False), lit1, lit2]))
    clauses.append(Clause([b1.negated(), b2.negated()]))
    names = ["b1", "b2"]
    names += map(_vertex, range(1, graph.n + 1))
    for i, j in graph.sorted_edges():
        names += _edge_vars(i, j)
    phi = _trusted(frozenset({Mod.STAR}), (), tuple(clauses),
                   tuple(sorted(names)))
    return phi, ("b1", "b2")


def _vc(i: int, c: int) -> str:
    return f"v{i}_{c}"


def _marker(i: int) -> str:
    return f"p{i}"


def prime_var(n: int) -> str:
    """The backdoor variable marking the n-th world."""
    return f"p{n}_prime"


def threecol_to_fp_horn(graph: Graph) -> tuple[SnfFormula, tuple[str, ...]]:
    """Past/future formula that is satisfiable iff the graph is
    3-colourable; {c1, c2, c3, p<n>_prime} is a strong Horn backdoor.

    Worlds 1..n each carry exactly one colour (c1..c3); per-vertex colour
    variables are frozen across time, marker variables pin down world i, and
    world i copies the colour of vertex i, so edges translate into
    mutual-exclusion clauses on the colour variables.
    """
    _check_size(graph)
    n = graph.n
    cs = [Lit(f"c{j}") for j in (1, 2, 3)]
    prime = Lit(prime_var(n))
    s = Lit("s")
    clauses = [
        Clause([cs[0], cs[1], cs[2]]),
        Clause([cs[0].negated(), cs[1].negated(), cs[2].negated()]),
        Clause([cs[0], cs[1].negated(), cs[2].negated()]),
        Clause([cs[0].negated(), cs[1].negated(), cs[2]]),
        Clause([cs[0].negated(), cs[1], cs[2].negated()]),
    ]
    for i in range(1, n + 1):
        for c in (1, 2, 3):
            vc = _vc(i, c)
            clauses.append(Clause([Lit(vc, positive=False), Lit(vc, Mod.FUT)]))
            clauses.append(Clause([Lit(vc, positive=False), Lit(vc, Mod.PAST)]))
    p = [None] + [_marker(i) for i in range(1, n + 1)]
    clauses.append(Clause([s.negated(), Lit(p[1], positive=False)]))
    clauses.append(Clause([s.negated(), Lit(p[1], Mod.FUT)]))
    clauses.append(Clause([s.negated(), Lit(p[1], Mod.PAST)]))
    for i in range(1, n):
        clauses.append(Clause([Lit(p[i], positive=False),
                               Lit(p[i], Mod.FUT, False),
                               Lit(p[i + 1], Mod.FUT)]))
        clauses.append(Clause([Lit(p[i]), Lit(p[i + 1], Mod.FUT, False)]))
    clauses.append(Clause([Lit(p[n]), Lit(p[n], Mod.FUT, False), prime]))
    clauses.append(Clause([Lit(p[n], positive=False), prime.negated()]))
    clauses.append(Clause([Lit(p[n], Mod.FUT), prime.negated()]))
    clauses.append(Clause([prime.negated(), Lit(p[n], Mod.PAST)]))
    for i in range(2, n + 1):
        clauses.append(Clause([Lit(p[i], positive=False),
                               Lit(p[i], Mod.PAST, False),
                               Lit(p[i - 1], Mod.PAST)]))
    for i in range(1, n + 1):
        for j in (1, 2, 3):
            fp = [Lit(p[i], Mod.FUT, False), Lit(p[i], Mod.PAST, False)]
            clauses.append(Clause(fp + [Lit(_vc(i, j), positive=False), cs[j - 1]]))
            clauses.append(Clause(fp + [cs[j - 1].negated(), Lit(_vc(i, j))]))
    for i, j in graph.sorted_edges():
        for c in (1, 2, 3):
            clauses.append(Clause([Lit(_vc(i, c), positive=False),
                                   Lit(_vc(j, c), positive=False)]))
    names = ["c1", "c2", "c3", "s", prime_var(n), *p[1:]]
    names += (_vc(i, c) for i in range(1, n + 1) for c in (1, 2, 3))
    phi = _trusted(frozenset({Mod.FUT, Mod.PAST}), ("s",), tuple(clauses),
                   tuple(sorted(names)))
    return phi, ("c1", "c2", "c3", prime_var(n))


def model_from_coloring(graph: Graph, colouring: Colouring,
                        target: str) -> FiniteWindowInterpretation:
    """Transcribe a proper colouring into a finite model of the reduction.

    Cells the construction leaves free default to false, except the colour
    variables on the frozen edge rows of the past/future gadget, which must
    still name exactly one colour (colour 1 by convention).
    """
    if not is_proper(graph, colouring):
        raise ValueError("colouring is not proper")
    n = graph.n
    if target == STAR_KROM:
        hi = max(3, n)

        def row(world: int) -> dict:
            r = {"b1": world == 2, "b2": world == 3}
            for i in range(1, n + 1):
                r[_vertex(i)] = world != colouring[i]
            for i, j in graph.sorted_edges():
                e_bb, e_nb, e_bn = _edge_vars(i, j)
                r[e_bb] = colouring[i] == 1
                r[e_nb] = colouring[i] == 2
                r[e_bn] = colouring[i] == 3
            return r

        frozen = row(0)  # any world outside 1..3 carries the frozen values
        return FiniteWindowInterpretation(
            left=frozen, window=tuple(row(w) for w in range(1, hi + 1)),
            lo=1, right=frozen, start=1)

    if target == FP_HORN:
        def row(world: int, frozen: bool) -> dict:
            r = {"s": world == 1, prime_var(n): world == n and not frozen}
            for j in (1, 2, 3):
                r[f"c{j}"] = (j == 1) if frozen else (colouring[world] == j)
            for i in range(1, n + 1):
                for c in (1, 2, 3):
                    r[_vc(i, c)] = colouring[i] == c
                r[_marker(i)] = frozen or world != i
            return r

        frozen = row(0, True)
        return FiniteWindowInterpretation(
            left=frozen, window=tuple(row(w, False) for w in range(1, n + 1)),
            lo=1, right=frozen, start=1)

    raise ValueError(f"unknown reduction target: {target}")


def coloring_from_model(graph: Graph, interp: FiniteWindowInterpretation,
                        target: str) -> Colouring:
    """Read a proper colouring back off any model of the reduction."""
    if target == STAR_KROM:
        phi, _ = threecol_to_star_krom(graph)
    elif target == FP_HORN:
        phi, _ = threecol_to_fp_horn(graph)
    else:
        raise ValueError(f"unknown reduction target: {target}")
    if not models(interp, phi):
        raise ValueError("interpretation is not a model of the reduction")

    colouring = {}
    if target == STAR_KROM:
        for i in range(1, graph.n + 1):
            world = next(z for z in range(interp.lo - 1, interp.hi + 2)
                         if not interp.row(z)[_vertex(i)])
            r = interp.row(world)
            b1, b2 = r["b1"], r["b2"]
            colouring[i] = 1 if not b1 and not b2 else (2 if b1 else 3)
    else:
        r = interp.row(interp.start)
        for i in range(1, graph.n + 1):
            hits = [c for c in (1, 2, 3) if r[_vc(i, c)]]
            if len(hits) != 1:
                raise ValueError(f"vertex {i} carries {len(hits)} colours")
            colouring[i] = hits[0]
    if not is_proper(graph, colouring):
        raise AssertionError("extracted colouring is not proper")
    return colouring
