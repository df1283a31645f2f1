"""Strong backdoor detection and verification.

Detection into the Horn class reduces to vertex cover of a conflict graph
(pairs of positive literals), detection into the Krom class to hitting every
variable set of a 3-literal selection.  Vertex cover is hitting the edges, so
both share one iterative bounded search tree, :func:`_first_hitting_set`: at
most k levels deep, branching over the elements of the first unhit set in a
fixed order, which makes the returned set deterministic.  Clauses satisfied
by every consistent assignment are dropped before building the graph/family;
the detected sets are backdoors of that satisfiability-equivalent core.
Detection refuses a formula that :func:`~ltlbd.formula.check_operators`
refuses.
The builders emit the graph's edges and the family's sets in the one form
the search reads unchanged: a tuple of name-sorted tuples in search order.

The search prunes with a packing bound.  Once, at entry, it packs the
non-empty sets greedily in list order, keeping each set disjoint from those
packed before it.  A node whose chosen elements miss more packed sets than
the budget has elements left holds no solution in its subtree: the packed
sets are pairwise disjoint, so each missed one needs an element of its own.
Hit counters keep the missed count current in O(1) per choice; a packing
recomputed at every node would prune more but cost O(m) per node.

The search also branches with exclusion.  When a node moves from child e to
its next sibling, e is excluded in the subtrees of all later siblings of
that node: they skip e as a child, a node whose branch set is all excluded
closes at once, and the node lifts its exclusions when it is exhausted.
The subtree of e is complete for the hitting sets of size <= k that contain
the chosen elements and e, because the budget and packing cuts drop only
subtrees that hold no solution, and by induction so do the exclusions.  So
once that subtree has failed, no solution below the node contains e, and
excluding e cuts only empty subtrees.  With both cuts dropping only
subtrees that hold no solution, the first hitting set in depth-first order,
the returned set, is the one the plain search returns.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Optional, Sequence

from .formula import (SnfFormula, assignment_modalities, check_operators,
                      _local_choices, remove_tautologies)

HORN = "horn"
KROM = "krom"


class ConflictGraph(NamedTuple):
    """Undirected graph over the formula variables, kept as its edges in
    search order: self-loops ``(v,)``, which force v into every cover, then
    pairs ``(u, v)`` with u < v, each group in name order."""

    edges: tuple[tuple[str, ...], ...]


class HittingFamily(NamedTuple):
    """Variable sets (size 1..3) of all 3-literal selections from clauses,
    each a name-sorted tuple, without repeats and in name order."""

    sets: tuple[tuple[str, ...], ...]


def build_horn_conflict_graph(phi: SnfFormula) -> ConflictGraph:
    """Edge {x, y} iff some clause holds two distinct positive temporal
    literals over x and y (x = y with different modalities gives a loop).

    Expects a tautology-free formula (see :func:`remove_tautologies`).
    """
    edges = set()
    for c in phi.clauses:
        # a clause keeps its positive literals in name order
        pos = [var for var, _, positive in c if positive]
        for a, b in itertools.combinations(pos, 2):
            edges.add((a,) if a == b else (a, b))
    return ConflictGraph(tuple(sorted(sorted(edges), key=len)))


def build_krom_hitting_family(phi: SnfFormula) -> HittingFamily:
    """One set per selection of exactly three distinct literals of a clause.

    Expects a tautology-free formula.
    """
    sets = {tuple(sorted({a.var, b.var, d.var})) for c in phi.clauses
            for a, b, d in itertools.combinations(c, 3)}
    return HittingFamily(tuple(sorted(sets)))


def _first_hitting_set(sets: Sequence[tuple[str, ...]],
                       k: int) -> Optional[frozenset[str]]:
    """The first hitting set of size <= k in depth-first order, or None.

    Each node branches over the elements, in order, of the first set the
    chosen elements do not hit yet, so the tree has depth <= k and at most
    max |set| children per node; an empty set can never be hit.  The search
    keeps one chosen set and an explicit path of (set index, branch
    position, trail mark), undoing the last choice on backtrack.  Every set
    before the last branch set is already hit, so each scan starts just
    past it.

    A node is pruned before its scan when the chosen elements miss more
    sets of the packing than the budget has left.  A child that an earlier
    sibling's failed subtree excluded is skipped, and a node with no child
    left closes (module docstring).  The excluded elements are one set and a
    trail; each path node marks where its own exclusions begin on the trail
    and lifts them when it is exhausted.
    """
    owner: dict[str, int] = {}  # element -> its packed set
    packed = 0
    for s in sets:
        if s and owner.keys().isdisjoint(s):
            owner.update(dict.fromkeys(s, packed))
            packed += 1
    hits = [0] * packed
    missed = packed
    chosen: set[str] = set()
    disjoint = chosen.isdisjoint
    banned: set[str] = set()
    trail: list[str] = []  # banned elements, by the node that banned them
    path: list[tuple[int, int, int]] = []
    start = 0
    while True:
        j = -1  # the branch taken next, or -1 to backtrack
        if missed <= k - len(path):
            for i in range(start, len(sets)):
                if disjoint(sets[i]):
                    break
            else:
                return frozenset(chosen)
            if len(path) < k:
                for j, e in enumerate(sets[i]):
                    if e not in banned:
                        break
                else:
                    j = -1
                mark = len(trail)
        if j < 0:
            while path:
                i, j, mark = path.pop()
                s = sets[i]
                e = s[j]
                chosen.remove(e)
                p = owner.get(e)
                if p is not None:
                    hits[p] -= 1
                    if not hits[p]:
                        missed += 1
                banned.add(e)
                trail.append(e)
                for j in range(j + 1, len(s)):
                    if s[j] not in banned:
                        break
                else:
                    banned.difference_update(trail[mark:])
                    del trail[mark:]
                    continue
                break
            else:
                return None
        e = sets[i][j]
        chosen.add(e)
        p = owner.get(e)
        if p is not None:
            hits[p] += 1
            if hits[p] == 1:
                missed -= 1
        path.append((i, j, mark))
        start = i + 1


def vertex_cover(graph: ConflictGraph, k: int) -> Optional[frozenset[str]]:
    """A cover of size <= k via a depth-<= k search tree over the edges in
    their stored order, or None; self-loop vertices are forced first."""
    if k < 0:
        raise ValueError("backdoor size bound k must be nonnegative")
    return _first_hitting_set(graph.edges, k)


def hitting_set_3(family: HittingFamily, k: int) -> Optional[frozenset[str]]:
    """A hitting set of size <= k via a depth-<= k search tree, or None.

    Branches over the elements of the first unhit set in name order.
    """
    if k < 0:
        raise ValueError("backdoor size bound k must be nonnegative")
    return _first_hitting_set(family.sets, k)


def detect_horn_backdoor(phi: SnfFormula, k: int) -> Optional[frozenset[str]]:
    """A strong Horn backdoor of size <= k of the tautology-free core."""
    check_operators(phi)
    core = remove_tautologies(phi)
    return vertex_cover(build_horn_conflict_graph(core), k)


def detect_krom_backdoor(phi: SnfFormula, k: int) -> Optional[frozenset[str]]:
    """A strong Krom backdoor of size <= k of the tautology-free core."""
    check_operators(phi)
    core = remove_tautologies(phi)
    return hitting_set_3(build_krom_hitting_family(core), k)


def verify_backdoor(phi: SnfFormula, backdoor: Iterable[str],
                    target: str) -> bool:
    """True iff every consistent assignment over the backdoor (and its modal
    copies) reduces every clause into the target class.

    Satisfied clauses are deleted and falsified literals dropped, so a clause
    matters only if every backdoor variable in it admits a consistent local
    assignment falsifying all of that variable's literals; the surviving part
    is then exactly the clause's non-backdoor literals.  Clause reducts are
    classified individually: an emptied clause belongs to every class but
    does not exempt the clauses next to it.

    A reduct only deletes clauses and literals, and both classes are closed
    under deleting literals, so a clause already in the target class cannot
    fail and is skipped.  Literals sort negatives first, so a clause is Horn
    iff its second-to-last literal, if any, is negative.  Whether a
    variable's literals are satisfied by every consistent local choice
    depends only on their (modality, sign) pairs, so it is decided once per
    distinct pattern.
    """
    if target not in (HORN, KROM):
        raise ValueError(f"unknown target class: {target}")
    horn = target == HORN
    back = set(backdoor)
    extra = back - set(phi.variables)
    if extra:
        raise ValueError(f"backdoor mentions unknown variables: {sorted(extra)}")
    mods = assignment_modalities(phi.operators)
    choices = _local_choices(mods)
    mod_pos = {m: i for i, m in enumerate(mods)}
    satisfied: dict[tuple, bool] = {}  # (modality position, sign) pairs

    for c in phi.clauses:
        if (len(c) < 2 or not c[-2].positive) if horn else len(c) < 3:
            continue
        by_var: dict[str, list] = {}
        rest_pos = 0
        rest_total = 0
        for var, mod, positive in c:
            if var in back and mod in mod_pos:
                by_var.setdefault(var, []).append((mod_pos[mod], positive))
            else:
                # literals with an undeclared modality are never assigned
                rest_total += 1
                rest_pos += positive
        for pairs in by_var.values():
            key = tuple(pairs)
            deletable = satisfied.get(key)
            if deletable is None:
                deletable = satisfied[key] = not any(
                    all(bits[i] != positive for i, positive in pairs)
                    for bits in choices)
            if deletable:
                break
        else:
            if (rest_pos > 1 if horn else rest_total > 2):
                return False
    return True


def minimal_backdoor_bruteforce(phi: SnfFormula,
                                target: str) -> frozenset[str]:
    """Smallest strong backdoor, ties broken lexicographically.

    Scans subsets by increasing size; limited to 12 variables.
    """
    variables = sorted(phi.variables)
    if len(variables) > 12:
        raise ValueError("minimal_backdoor_bruteforce limited to 12 variables")
    for size in range(len(variables) + 1):
        for combo in itertools.combinations(variables, size):
            if verify_backdoor(phi, combo, target):
                return frozenset(combo)
    raise AssertionError("the full variable set is always a backdoor")
