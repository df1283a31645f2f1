"""Executable reductions from graph 3-colouring to clausal temporal logic.

Two gadget families are generated: an always-only formula with a two-variable
Krom backdoor, and a past/future formula with a four-variable Horn backdoor.
In both directions certificates translate explicitly: a proper colouring
becomes a finite model, and any model projects back to a proper colouring.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

from .formula import Clause, Lit, Mod, SnfFormula, _Record, _trusted
from .interp import FiniteWindowInterpretation, models

STAR_KROM = "star-krom"
FP_HORN = "fp-horn"

#: At most this many vertices: a tiny graph file can name any count, and
#: both reductions build a few clauses per vertex.
REDUCE_VERTEX_LIMIT = 10_000

#: Wraps a tuple of distinct literals already in canonical order as a
#: ``Clause`` without sorting them again.
_clause = functools.partial(tuple.__new__, Clause)


class Graph(_Record):
    """Undirected graph on vertices 1..n; edges stored with i < j."""

    __slots__ = ("n", "edges")

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop on vertex {i}")
            a, b = min(i, j), max(i, j)
            if not 1 <= a < b <= n:
                raise ValueError(f"edge ({i},{j}) outside 1..{n}")
            norm.add((a, b))
        self._fill(n, frozenset(norm))

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
    b1, b2 = Lit("b1"), Lit("b2")
    nb1, nb2 = b1.negated(), b2.negated()
    vertices = [_vertex(i) for i in range(1, graph.n + 1)]
    clauses = [_clause((Lit(v, Mod.STAR, False),)) for v in vertices]
    at = [None] + [Lit(v) for v in vertices]  # at[i]: vertex i's variable
    names = ["b1", "b2", *vertices]
    # each clause in canonical order: the negatives (~b1 or ~b2 before
    # ~[*]e_...), then the positives (b1 < b2 < [*]e_... < v...)
    for i, j in graph.sorted_edges():
        evs = _edge_vars(i, j)
        names += evs
        for ev, neg, pos in zip(evs, ((), (nb1,), (nb2,)),
                                ((b1, b2), (b2,), (b1,))):
            e = Lit(ev, Mod.STAR)
            clauses.append(_clause((*neg, *pos, e, at[i])))
            clauses.append(_clause((*neg, e.negated(), *pos, at[j])))
    clauses.append(_clause((nb1, nb2)))
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
    none, fut, past = Mod.NONE, Mod.FUT, Mod.PAST
    c1, c2, c3 = cs = [Lit(f"c{j}") for j in (1, 2, 3)]
    nc1, nc2, nc3 = ncs = [c.negated() for c in cs]
    prime = Lit(prime_var(n))
    nprime = prime.negated()
    # each clause in canonical order: negatives first, then names in string
    # order (c... < p<i> < p<i>_prime < s < v...), then modality none, past,
    # future
    clauses = [
        _clause((c1, c2, c3)),
        _clause((nc1, nc2, nc3)),
        _clause((nc2, nc3, c1)),
        _clause((nc1, nc2, c3)),
        _clause((nc1, nc3, c2)),
    ]
    # vc[i][c - 1]: vertex i has colour c; off[i][c - 1] its negation
    vc = [None] + [[_vc(i, c) for c in (1, 2, 3)] for i in range(1, n + 1)]
    off = [None] + [[Lit(x, none, False) for x in row] for row in vc[1:]]
    for i in range(1, n + 1):
        for x, nx in zip(vc[i], off[i]):
            clauses.append(_clause((nx, Lit(x, fut))))
            clauses.append(_clause((nx, Lit(x, past))))
    # each marker's literals, by index i: p_i, ~p_i, [F]p_i, ~[F]p_i,
    # [P]p_i and ~[P]p_i
    p = [None] + [_marker(i) for i in range(1, n + 1)]
    at = [None] + [Lit(x) for x in p[1:]]
    not_at = [None] + [Lit(x, none, False) for x in p[1:]]
    f = [None] + [Lit(x, fut) for x in p[1:]]
    not_f = [None] + [Lit(x, fut, False) for x in p[1:]]
    pa = [None] + [Lit(x, past) for x in p[1:]]
    not_pa = [None] + [Lit(x, past, False) for x in p[1:]]
    ns = Lit("s", none, False)
    clauses.append(_clause((not_at[1], ns)))
    clauses.append(_clause((ns, f[1])))
    clauses.append(_clause((ns, pa[1])))
    for i in range(1, n):
        clauses.append(_clause((not_at[i], not_f[i], f[i + 1])))
        clauses.append(_clause((not_f[i + 1], at[i])))
    clauses.append(_clause((not_f[n], at[n], prime)))
    clauses.append(_clause((not_at[n], nprime)))
    clauses.append(_clause((nprime, f[n])))
    clauses.append(_clause((nprime, pa[n])))
    for i in range(2, n + 1):
        clauses.append(_clause((not_at[i], not_pa[i], pa[i - 1])))
    for i in range(1, n + 1):
        for x, nx, c, nc in zip(vc[i], off[i], cs, ncs):
            clauses.append(_clause((not_pa[i], not_f[i], nx, c)))
            clauses.append(_clause((nc, not_pa[i], not_f[i], Lit(x))))
    for i, j in graph.sorted_edges():
        for nx, ny in zip(off[i], off[j]):
            clauses.append(_clause((nx, ny) if nx.var < ny.var else (ny, nx)))
    names = ["c1", "c2", "c3", "s", prime_var(n), *p[1:]]
    names += (x for row in vc[1:] for x in row)
    phi = _trusted(frozenset({fut, past}), ("s",), tuple(clauses),
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
