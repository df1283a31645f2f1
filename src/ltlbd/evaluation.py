"""Backdoor evaluation for the always-only fragment.

Given a strong Horn backdoor X, satisfiability is decided by enumerating
candidate sets of assignments over X together with a designated member, and
solving one propositional Horn formula per candidate.  The bounded-witness
encoding lays out r+1 world copies per assignment block (r non-backdoor
variables), shares one global atom per remaining variable across all copies,
and ties the two together with consistency clauses (``¬g ∨ c`` for every
copy c of g's variable, ``g ∨ ¬c…`` over those copies), so its models are
exactly the bounded assignment sets witnessing satisfiability.

Two copies per block decide a candidate.  The designated member's initial
facts are units on its copy 1; nothing else tells copies apart.  Permuting
copies 2..r+1 of one block therefore maps the clause set onto itself and
fixes every unit, and the least model of a Horn formula is unique, so it is
constant on those copies.  Merging them into one copy gives a quotient
encoding on min(r+1, 2) copies per block.  A model of the quotient, read back
on every merged copy, is a model of the full encoding, and the least model of
the full encoding projects to a model of the quotient; so the quotient is
satisfiable exactly when the full encoding is, and its least model is the
projection of the full one.  Evaluation solves the quotient: its size is
linear in r, where the full encoding's is quadratic.

It is built on integers, not on :class:`~ltlbd.propsat.Atom`:

* Block cache.  A block's reduct depends only on its assignment θ and the
  set's unanimity vector (the always-copies in :func:`global_assignment`),
  so it is reduced once per such key and coded straight into the member's
  copy ids as integer clauses.
* Factoring.  The candidates of one member set share everything but their
  initial-fact units U: the blocks and the consistency clauses S.  S is
  built once per set, as one integer clause list: the blocks (members in
  order, copies in order, reduct clauses in order), then per variable the
  consistency clauses.  The minimal model of a Horn formula S ∧ U is
  forward chaining from the closure of S with U added, so S is closed once
  per set and each variant extends a copy of that closure.  If S is
  unsatisfiable, so is every variant; a variant whose designated member
  falsifies a backdoor initial fact (a dead candidate, holding an empty
  clause) needs no solve, and a set whose variants are all dead builds
  no block.
* One Horn kernel.  Closure and extension run
  :func:`ltlbd._kernels.horn_forward`, the same propagator behind
  :func:`~ltlbd.propsat.horn_sat`.

On SAT the certificate is read back onto r+1 copies: the minimal model lists
every atom of the full encoding, copies 2..r+1 taking copy 2's values.

The full (r+1)-copy encoding is built only when asked for, for
``on_candidate`` and :func:`build_horn_encoding`, as a :class:`PropCnf` from
its definition: per member, :func:`~ltlbd.formula.reduct` →
:func:`propositionalize` → :func:`relabel_copy` for copies 1..r+1, then the
designated member's initial facts (``()`` for each falsified backdoor fact),
then the consistency clauses.  It shares no integer code with the solve, so
its minimal model, which is the one evaluation reports, cross-checks the
quotient and its layout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .detection import HORN, verify_backdoor
from .formula import (ConsistentAssignment, Mod, SnfFormula, Clause,
                      remove_tautologies, reduct)
from .interp import (AssignmentSet, FiniteWindowInterpretation,
                     from_assignment_set, models)
from . import _kernels
from .propsat import Atom, PropCnf, copy_atom, global_atom, plain_atom

# bound once for the per-literal loops: class lookups of enum members are slow
_NONE, _STAR = Mod.NONE, Mod.STAR

#: Evaluation handles at most this many backdoor variables: k variables
#: give 2^(2^k) - 1 member sets, about 4.3·10^9 at k = 5.
EVAL_BACKDOOR_LIMIT = 4


@dataclass(frozen=True)
class ThetaSet:
    """A nonempty set of assignments over the backdoor, with a designated
    member that must carry the initial facts."""

    members: tuple[dict, ...]
    designated: dict

    def __post_init__(self):
        if not self.members:
            raise ValueError("theta set must be nonempty")
        if self.designated not in self.members:
            raise ValueError("designated assignment must belong to the set")


@dataclass(frozen=True)
class EvalResult:
    verdict: str  # "SAT" | "UNSAT"
    theta_set: Optional[ThetaSet] = None
    horn_model: Optional[dict] = None
    assignment_set: Optional[AssignmentSet] = None
    interpretation: Optional[FiniteWindowInterpretation] = None

    @property
    def satisfiable(self) -> bool:
        return self.verdict == "SAT"


def assignments_over(variables: Iterable[str]) -> list[dict]:
    """All assignments over the variables, lexicographic (sorted names,
    earlier variables most significant, false before true)."""
    vs = sorted(set(variables))
    return [dict(zip(vs, bits))
            for bits in itertools.product((False, True), repeat=len(vs))]


def candidate_theta_sets(variables: Iterable[str]) -> Iterator[ThetaSet]:
    """Candidates in deterministic order: sets by increasing cardinality,
    then lexicographic member indices; the designated member in set order."""
    pool = assignments_over(variables)
    for combo in _member_sets(len(pool)):
        members = tuple(pool[i] for i in combo)
        for designated in members:
            yield ThetaSet(members, designated)


def global_assignment(members: Iterable[dict], variables: Iterable[str],
                      local: Optional[dict] = None) -> ConsistentAssignment:
    """Unanimity-derived assignment to the always-copies of ``variables``:
    the always-copy of v is true iff every member sets v true.  With
    ``local`` given, the plain copies take its values."""
    members = list(members)
    values = {}
    for v in variables:
        values[(v, Mod.STAR)] = all(m[v] for m in members)
        if local is not None:
            values[(v, Mod.NONE)] = bool(local[v])
    return ConsistentAssignment(values)


def propositionalize(clauses: Iterable[Clause]) -> PropCnf:
    """Map always-literals to global atoms and bare variables to plain
    atoms, preserving clause structure.  Rejects past/future literals."""
    out = []
    for c in clauses:
        lits = []
        for lit in c:
            if lit.mod is Mod.NONE:
                lits.append((plain_atom(lit.var), lit.positive))
            elif lit.mod is Mod.STAR:
                lits.append((global_atom(lit.var), lit.positive))
            else:
                raise ValueError(
                    f"literal {lit} outside the always-only fragment")
        out.append(tuple(lits))
    return PropCnf(out)


def relabel_copy(cnf: PropCnf, variables: Iterable[str], index: int,
                 label: str) -> PropCnf:
    """Replace plain atoms over ``variables`` with labelled copies; global
    atoms (and atoms over other variables) are shared untouched."""
    if index < 1:
        raise ValueError("copy index must be >= 1")
    vs = set(variables)
    out = []
    for c in cnf.clauses:
        lits = []
        for atom, pos in c:
            if atom.kind == "plain" and atom.var in vs:
                atom = copy_atom(atom.var, index, label)
            lits.append((atom, pos))
        out.append(tuple(lits))
    return PropCnf(out)


def _theta_label(theta: dict) -> str:
    return "".join("1" if theta[v] else "0" for v in sorted(theta))


def _member_sets(n: int) -> Iterator[tuple[int, ...]]:
    """Nonempty index sets of an n-member pool, by increasing cardinality,
    then lexicographic."""
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


class _Encoding:
    """The candidate encodings of one formula and backdoor, solved as the
    quotient on ``c = min(r + 1, 2)`` world copies per block (module
    docstring), on integers.

    Atom layout, with ``r = len(rest)``: the global atom of ``rest[j]`` is
    ``j``, and copy ``i`` (1..c) of ``rest[j]`` in the block of pool member
    ``p`` is ``r + ((p * c) + i - 1) * r + j``.  A literal is ±(atom+1).
    Copy 1 carries the designated member's initial facts; copy 2 stands for
    copies 2..r+1 of the full encoding, and :meth:`certificate` reads the
    full encoding's model and rows off it.
    """

    def __init__(self, phi: SnfFormula, backdoor: tuple[str, ...]):
        self.back = backdoor
        self.rest = sorted(set(phi.variables) - set(backdoor))
        r = len(self.rest)
        self.c = min(r + 1, 2)
        self.pool = assignments_over(backdoor)
        self.n_atoms = r + len(self.pool) * self.c * r
        self.clause_part = SnfFormula(phi.operators, (), phi.clauses,
                                      variables=phi.variables)
        self.slot = {v: j for j, v in enumerate(self.rest)}
        self.labels = [_theta_label(theta) for theta in self.pool]
        # (member, unanimity mask) -> (literals, clause lengths) of the
        # member's block on its c copies
        self.blocks: dict = {}
        # per member, per rest[j]: the ties ``¬g ∨ c`` over its copies, and
        # the negated copies
        self.ties = [[[l for i in range(1, self.c + 1)
                       for l in (-(j + 1), self.copy_id(p, i, j) + 1)]
                      for j in range(r)] for p in range(len(self.pool))]
        self.negs = [[[-(self.copy_id(p, i, j) + 1)
                       for i in range(1, self.c + 1)]
                      for j in range(r)] for p in range(len(self.pool))]
        # per member: is it dead, and its initial facts as copy-1 ids
        self.dead = [any(v in theta and not theta[v] for v in phi.initial)
                     for theta in self.pool]
        self.units = [[self.copy_id(p, 1, self.slot[v])
                       for v in phi.initial if v not in theta]
                      for p, theta in enumerate(self.pool)]

    def copy_id(self, p: int, i: int, j: int) -> int:
        r = len(self.rest)
        return r + (p * self.c + i - 1) * r + j

    def block(self, p: int, mask: int, members: tuple) -> tuple:
        """Member ``p``'s block for a set of unanimity ``mask``: the reduct
        under :func:`global_assignment`, computed once per ``(p, mask)`` and
        coded into each of the member's copies in turn.  The reduct assigns
        both atoms of every backdoor variable, so every plain or
        always-literal left is over ``rest``."""
        key = (p, mask)
        if key not in self.blocks:
            glob = global_assignment(members, self.back, self.pool[p])
            clauses = reduct(self.clause_part, glob).clauses
            slot = self.slot
            lits, lens = [], []
            horn = True
            for i in range(1, self.c + 1):
                base = self.copy_id(p, i, 0) + 1
                for clause in clauses:
                    heads = 0
                    for lit in clause:
                        if lit.mod is _NONE:
                            a = base + slot[lit.var]
                        elif lit.mod is _STAR:
                            a = slot[lit.var] + 1
                        else:
                            raise ValueError(f"literal {lit} outside the "
                                             "always-only fragment")
                        if lit.positive:
                            heads += 1
                            lits.append(a)
                        else:
                            lits.append(-a)
                    horn = horn and heads <= 1
                    lens.append(len(clause))
            if not horn:
                raise AssertionError(
                    "encoding of a verified backdoor must be Horn")
            self.blocks[key] = (lits, lens)
        return self.blocks[key]

    def closure(self, combo: tuple[int, ...], members: tuple) -> tuple:
        """Minimal model of the clauses a member set's candidates share:
        ``(values, (heads, counts, occ))``, or None when they are
        unsatisfiable.  The clauses are the blocks (members in order, copies
        in order), then per variable ``rest[j]`` the ties ``¬g ∨ c`` for
        every copy and ``g ∨ ¬c…``."""
        mask = _unanimity(combo, len(self.pool))
        lits, lens = [], []
        for p in combo:
            block_lits, block_lens = self.block(p, mask, members)
            lits += block_lits
            lens += block_lens
        n_ties = [2] * (len(combo) * self.c)
        for j in range(len(self.rest)):
            wide = [j + 1]
            for p in combo:
                lits += self.ties[p][j]
                wide += self.negs[p][j]
            lits += wide
            lens += n_ties
            lens.append(len(wide))
        starts = [0, *itertools.accumulate(lens)]
        heads, counts, occ, facts = _kernels.horn_index(self.n_atoms, lits,
                                                        starts)
        values = [0] * self.n_atoms
        if not _kernels.horn_forward(heads, counts, occ, values, facts):
            return None
        return values, (heads, counts, occ)

    def certificate(self, combo: tuple[int, ...], d: int,
                    values: list) -> tuple:
        """``(horn_model, assignment_set)`` of a satisfied candidate, from
        the least model ``values`` of its quotient: copy ``i`` of a block
        reads copy ``min(i, c)``.

        The model covers every atom of the full encoding, the r+1 copies of
        the members and the globals, in sorted :class:`Atom` order as
        :func:`~ltlbd.propsat.horn_sat` lists it: copies by variable, copy
        index and label (pool order is label order), then the globals.  The
        rows are copies 1 and 2 of each member; copies 3..r+1 equal copy 2,
        so the rows the :class:`AssignmentSet` keeps are the same."""
        c = self.c
        model = {}
        for j, v in enumerate(self.rest):
            for i in range(1, len(self.rest) + 2):
                for p in combo:
                    model[Atom("copy", v, i, self.labels[p])] = bool(
                        values[self.copy_id(p, min(i, c), j)])
        for j, v in enumerate(self.rest):
            model[global_atom(v)] = bool(values[j])
        rows = []
        for p in combo:
            for i in range(1, c + 1):
                row = dict(self.pool[p])
                for j, v in enumerate(self.rest):
                    row[v] = bool(values[self.copy_id(p, i, j)])
                rows.append(row)
        return model, AssignmentSet(tuple(rows), rows[combo.index(d) * c])


def _unanimity(combo: tuple[int, ...], n_pool: int) -> int:
    """Bits of the backdoor variables true in every member (pool positions
    read as bit vectors, the first variable most significant)."""
    mask = n_pool - 1
    for p in combo:
        mask &= p
    return mask


def _full_encoding(phi: SnfFormula, back: tuple[str, ...],
                   members: tuple) -> tuple:
    """``(blocks, ties)``: the clauses of a member set's (r+1)-copy encoding
    that all its candidates share, built from the definition on
    :class:`Atom` clauses.  Per member θ, in order: the reduct of ``phi``'s
    clauses under :func:`global_assignment`, propositionalized and relabelled
    to copies 1..r+1 of θ's block.  Then per non-backdoor variable: the ties
    ``¬g ∨ c`` for every copy c (members in order, copies in order) and
    ``g ∨ ¬c…``."""
    rest = sorted(set(phi.variables) - set(back))
    copies = range(1, len(rest) + 2)
    clause_part = SnfFormula(phi.operators, (), phi.clauses,
                             variables=phi.variables)
    labels = [_theta_label(theta) for theta in members]
    blocks = []
    for theta, label in zip(members, labels):
        glob = global_assignment(members, back, theta)
        cnf = propositionalize(reduct(clause_part, glob).clauses)
        if not cnf.is_horn:
            raise AssertionError("encoding of a verified backdoor must be Horn")
        for i in copies:
            blocks += relabel_copy(cnf, rest, i, label).clauses
    ties = []
    for v in rest:
        g = global_atom(v)
        atoms = [copy_atom(v, i, label) for label in labels for i in copies]
        ties += [((g, False), (a, True)) for a in atoms]
        ties.append(((g, True), *[(a, False) for a in atoms]))
    return tuple(blocks), tuple(ties)


def _with_facts(shared: tuple, initial: tuple[str, ...],
                designated: dict) -> PropCnf:
    """One candidate's (r+1)-copy encoding: the blocks, then the designated
    member's initial facts, then the ties.  A fact the member's backdoor
    value falsifies is an empty clause (a dead candidate), any other a unit
    on copy 1 of its block."""
    blocks, ties = shared
    label = _theta_label(designated)
    facts = tuple(() if v in designated else ((copy_atom(v, 1, label), True),)
                  for v in initial if not designated.get(v))
    return PropCnf.from_normal(blocks + facts + ties)


def build_horn_encoding(phi: SnfFormula, backdoor: Iterable[str],
                        ts: ThetaSet) -> PropCnf:
    """The Horn formula whose satisfiability decides one candidate: the
    (r+1)-copy encoding, built from its definition and sharing no integer
    code with the solve of :func:`evaluate_horn_star`.

    Requires the always-only fragment and a verified strong Horn backdoor;
    the result is then guaranteed Horn.
    """
    _check_fragment(phi)
    back = tuple(sorted(set(backdoor)))
    if not verify_backdoor(phi, back, HORN):
        raise ValueError("backdoor does not verify for the Horn class")
    return _with_facts(_full_encoding(phi, back, ts.members), phi.initial,
                       ts.designated)


def encoding_size_bound(phi: SnfFormula, backdoor: Iterable[str]) -> int:
    """Closed-form clause-count bound on any candidate encoding."""
    k = len(set(backdoor))
    r = len(set(phi.variables) - set(backdoor)) + 1
    size = len(phi.clauses) + len(phi.initial)
    return (1 << k) * r * size + 2 * (1 << k) * r * r


def _check_fragment(phi: SnfFormula) -> None:
    if not phi.operators <= {Mod.STAR}:
        raise ValueError("backdoor evaluation handles the always-only "
                         f"fragment; formula declares {sorted(m.name for m in phi.operators)}")


def evaluate_horn_star(phi: SnfFormula, backdoor: Iterable[str],
                       on_candidate=None) -> EvalResult:
    """Decide satisfiability through a strong Horn backdoor.

    Tautological clauses are dropped first (they hold in every
    interpretation, and detected backdoors are backdoors of that core).
    Candidates are tried in the order of :func:`candidate_theta_sets` with a
    short-circuit on the first satisfiable encoding, so the certificate is
    reproducible.  On SAT the certificate is re-checked against the original
    formula.  ``on_candidate(ts, cnf)`` is invoked for every candidate tried,
    e.g. to dump its encoding.  Raises ValueError for a backdoor of more
    than :data:`EVAL_BACKDOOR_LIMIT` variables.
    """
    _check_fragment(phi)
    core = remove_tautologies(phi)
    back = tuple(sorted(set(backdoor)))
    if len(back) > EVAL_BACKDOOR_LIMIT:
        raise ValueError(f"backdoor evaluation limited to "
                         f"{EVAL_BACKDOOR_LIMIT} backdoor variables, "
                         f"got {len(back)}")
    if not verify_backdoor(core, back, HORN):
        raise ValueError("backdoor does not verify for the Horn class")
    enc = _Encoding(core, back)
    pool = enc.pool

    for combo in _member_sets(len(pool)):
        members = tuple(pool[p] for p in combo)
        if on_candidate is not None:
            full = _full_encoding(core, back, members)
        shared = False  # not built yet; None once found unsatisfiable
        for d in combo:
            if on_candidate is not None:
                on_candidate(ThetaSet(members, pool[d]),
                             _with_facts(full, core.initial, pool[d]))
            if enc.dead[d]:
                continue
            if shared is False:
                shared = enc.closure(combo, members)
            if shared is None:
                continue
            values, (heads, counts, occ) = shared
            values = values[:]
            if not _kernels.horn_forward(heads, counts[:], occ, values,
                                         enc.units[d]):
                continue
            model, aset = enc.certificate(combo, d, values)
            interp = from_assignment_set(aset)
            if not models(interp, phi):
                raise AssertionError("certificate failed the model check")
            return EvalResult("SAT", ThetaSet(members, pool[d]), model,
                              aset, interp)
    return EvalResult("UNSAT")
