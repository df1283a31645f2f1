"""Backdoor evaluation for the always-only fragment.

Given a strong Horn backdoor X, satisfiability is decided by enumerating
candidate sets of assignments over X together with a designated member, and
solving one propositional Horn formula per candidate.  The Horn formula lays
out a bounded number of world copies per assignment block, shares one global
atom per remaining variable across all copies, and ties the two together with
consistency clauses, so its models are exactly the bounded assignment sets
witnessing satisfiability.

The encodings are built on integers, not on :class:`~ltlbd.propsat.Atom`:

* Block cache.  A block's reduct depends only on its assignment θ and the
  set's unanimity vector (the always-copies in :func:`global_assignment`),
  so it is reduced once per such key and kept as integer clauses.  Atom ids
  are laid out so that the copies of a block differ only by an offset.
* Factoring.  The candidates of one member set share everything but their
  initial-fact units U: the blocks and the consistency clauses S.  The
  minimal model of a Horn formula S ∧ U is forward chaining from the
  closure of S with U added, so S is closed once per set and each variant
  extends a copy of that closure.  If S is unsatisfiable, so is every
  variant; a variant whose designated member falsifies a backdoor initial
  fact (a dead candidate, holding an empty clause) needs no solve.
* One Horn kernel.  Closure and extension run
  :func:`ltlbd._kernels.horn_forward`, the same propagator behind
  :func:`~ltlbd.propsat.horn_sat`.

A :class:`PropCnf` is made only when asked for, for ``on_candidate`` and
:func:`build_horn_encoding`.  It lists the same integer clauses mapped back
to atoms, in the order of the encoding's definition: blocks (members in
order, copies in order, reduct clauses in order), the initial facts (``()``
for each falsified backdoor fact), then the consistency clauses per
variable.  Clauses are copied, never merged or dropped, so the view equals
the encoding clause for clause, and its minimal model is the one found.
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
    """The candidate encodings of one formula and backdoor, on integers.

    Atom ids are fixed once: the global atom of ``rest[j]`` is ``j``, and
    copy ``i`` (1-based) of ``rest[j]`` in the block of pool member ``p`` is
    ``r + ((p * copies) + i - 1) * r + j`` with ``r = len(rest)``.  A
    block's literals therefore differ between copies and members only by an
    offset.  Atoms outside this layout (a reduct keeps backdoor literals
    only when the formula holds an empty clause) are numbered after it.
    :meth:`atom` maps an id back to its :class:`Atom`.
    """

    def __init__(self, phi: SnfFormula, backdoor: tuple[str, ...]):
        self.back = backdoor
        self.rest = sorted(set(phi.variables) - set(backdoor))
        self.copies = len(self.rest) + 1
        self.pool = assignments_over(backdoor)
        self.initial = phi.initial
        self.clause_part = SnfFormula(phi.operators, (), phi.clauses,
                                      variables=phi.variables)
        r = len(self.rest)
        self.slot = {v: j for j, v in enumerate(self.rest)}
        self.labels = [_theta_label(theta) for theta in self.pool]
        self.n_layout = r + len(self.pool) * self.copies * r
        self.extra: list = []  # atoms outside the layout, by id
        # (member, unanimity mask) -> (literals, clause lengths, Horn?)
        self.blocks: dict = {}
        self.block_views: dict = {}
        self.views: tuple = ((), ())  # (member set, its shared clauses)
        # per member: is it dead, and its initial facts as copy-1 ids
        self.dead = [any(v in theta and not theta[v] for v in phi.initial)
                     for theta in self.pool]
        self.units = [[self.copy_id(p, 1, self.slot[v]) for v in phi.initial
                       if v not in theta]
                      for p, theta in enumerate(self.pool)]
        # per member: the negated copies of each rest[j], and the clauses
        # tying the global atom of rest[j] to each of them
        self.copy_negs = [[[-self.copy_id(p, i, j) - 1
                            for i in range(1, self.copies + 1)]
                           for j in range(r)]
                          for p in range(len(self.pool))]
        self.ties = []
        for negs in self.copy_negs:
            lits = []
            for j, row in enumerate(negs):
                for lit in row:
                    lits += (-(j + 1), -lit)
            self.ties.append((lits, [2] * (len(lits) // 2)))

    @property
    def n_atoms(self) -> int:
        return self.n_layout + len(self.extra)

    def copy_id(self, p: int, i: int, j: int) -> int:
        r = len(self.rest)
        return r + (p * self.copies + i - 1) * r + j

    def atom(self, a: int) -> Atom:
        r = len(self.rest)
        if a < r:
            return global_atom(self.rest[a])
        if a < self.n_layout:
            q, j = divmod(a - r, r)
            p, i = divmod(q, self.copies)
            return copy_atom(self.rest[j], i + 1, self.labels[p])
        return self.extra[a - self.n_layout]

    def index(self, theta: dict) -> int:
        """Pool position of an assignment over the backdoor."""
        p = 0
        for v in self.back:
            p = 2 * p + bool(theta[v])
        return p

    def _code(self, lit) -> int:
        """Signed id (±(atom+1)) of a literal in copy 1 of pool member 0."""
        if lit.mod is _NONE and lit.var in self.slot:
            a = len(self.rest) + self.slot[lit.var]
        elif lit.mod is _STAR and lit.var in self.slot:
            a = self.slot[lit.var]
        elif lit.mod in (_NONE, _STAR):
            atom = (plain_atom if lit.mod is _NONE else global_atom)(lit.var)
            if atom not in self.extra:
                self.extra.append(atom)
            a = self.n_layout + self.extra.index(atom)
        else:
            raise ValueError(
                f"literal {lit} outside the always-only fragment")
        return a + 1 if lit.positive else -(a + 1)

    def block(self, p: int, mask: int, members: tuple) -> tuple:
        """Every copy of member ``p``'s block for a set of unanimity
        ``mask``: the reduct under :func:`global_assignment`, computed once
        per key and shifted to each copy."""
        key = (p, mask)
        if key not in self.blocks:
            glob = global_assignment(members, self.back, self.pool[p])
            template = [[self._code(lit) for lit in c]
                        for c in reduct(self.clause_part, glob).clauses]
            r = len(self.rest)
            flat = [l for c in template for l in c]
            # +1/-1 on the literals of copy 1 of member 0, which shift
            shift = [(l > 0) - (l < 0) if r < abs(l) <= 2 * r else 0
                     for l in flat]
            lits = []
            for i in range(1, self.copies + 1):
                off = self.copy_id(p, i, 0) - r
                lits += [l + s * off for l, s in zip(flat, shift)]
            lens = [len(c) for c in template] * self.copies
            horn = all(sum(l > 0 for l in c) <= 1 for c in template)
            self.blocks[key] = (lits, lens, horn)
        return self.blocks[key]

    def prepare(self, combo: tuple[int, ...], members: tuple) -> bool:
        """Builds the blocks of a member set in member order; True iff they
        are all Horn."""
        mask = _unanimity(combo, len(self.pool))
        return all([self.block(p, mask, members)[2] for p in combo])

    def closure(self, combo: tuple[int, ...]) -> tuple:
        """Minimal model of the blocks and consistency clauses shared by a
        member set's candidates: ``(values, (heads, counts, occ), lits)``,
        or None when they are unsatisfiable."""
        mask = _unanimity(combo, len(self.pool))
        lits, lens = [], []
        for p in combo:
            block_lits, block_lens, _ = self.blocks[(p, mask)]
            tie_lits, tie_lens = self.ties[p]
            lits += block_lits
            lits += tie_lits
            lens += block_lens
            lens += tie_lens
        for j in range(len(self.rest)):
            wide = [j + 1]
            for p in combo:
                wide += self.copy_negs[p][j]
            lits += wide
            lens.append(len(wide))
        starts = [0, *itertools.accumulate(lens)]
        heads, counts, occ, facts = _kernels.horn_index(self.n_atoms, lits,
                                                        starts)
        values = [0] * self.n_atoms
        if not _kernels.horn_forward(heads, counts, occ, values, facts):
            return None
        return values, (heads, counts, occ), lits

    def view(self, combo: tuple[int, ...], d: int) -> PropCnf:
        """The encoding of one candidate as a :class:`PropCnf`, clause for
        clause: blocks (members in order, copies in order), initial facts,
        consistency."""
        if self.views[0] != combo:
            mask = _unanimity(combo, len(self.pool))
            blocks = []
            for p in combo:
                if (p, mask) not in self.block_views:
                    lits, lens, _ = self.blocks[(p, mask)]
                    self.block_views[(p, mask)] = self._clauses(lits, lens)
                blocks += self.block_views[(p, mask)]
            ties = []
            for j, v in enumerate(self.rest):
                g = global_atom(v)
                wide = [(g, True)]
                for p in combo:
                    for i in range(1, self.copies + 1):
                        c = self.atom(self.copy_id(p, i, j))
                        ties.append(((g, False), (c, True)))
                        wide.append((c, False))
                ties.append(tuple(wide))
            self.views = (combo, (tuple(blocks), tuple(ties)))
        blocks, ties = self.views[1]
        designated = self.pool[d]
        facts = []
        for v in self.initial:
            if v in designated:
                if not designated[v]:
                    facts.append(())  # dead candidate
            else:
                facts.append(
                    ((self.atom(self.copy_id(d, 1, self.slot[v])), True),))
        return PropCnf.from_normal(blocks + tuple(facts) + ties)

    def _clauses(self, lits: list[int], lens: list[int]) -> list[tuple]:
        out = []
        pos = 0
        for n in lens:
            out.append(tuple((self.atom(abs(l) - 1), l > 0)
                             for l in lits[pos:pos + n]))
            pos += n
        return out


def _unanimity(combo: tuple[int, ...], n_pool: int) -> int:
    """Bits of the backdoor variables true in every member (pool positions
    read as bit vectors, the first variable most significant)."""
    mask = n_pool - 1
    for p in combo:
        mask &= p
    return mask


def build_horn_encoding(phi: SnfFormula, backdoor: Iterable[str],
                        ts: ThetaSet) -> PropCnf:
    """The Horn formula whose satisfiability decides one candidate.

    Requires the always-only fragment and a verified strong Horn backdoor;
    the result is then guaranteed Horn.
    """
    _check_fragment(phi)
    back = tuple(sorted(set(backdoor)))
    if not verify_backdoor(phi, back, HORN):
        raise ValueError("backdoor does not verify for the Horn class")
    enc = _Encoding(phi, back)
    combo = tuple(enc.index(m) for m in ts.members)
    enc.prepare(combo, ts.members)
    cnf = enc.view(combo, enc.index(ts.designated))
    if not cnf.is_horn:
        raise AssertionError("encoding of a verified backdoor must be Horn")
    return cnf


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
    e.g. to dump its encoding.
    """
    _check_fragment(phi)
    core = remove_tautologies(phi)
    back = tuple(sorted(set(backdoor)))
    if not verify_backdoor(core, back, HORN):
        raise ValueError("backdoor does not verify for the Horn class")
    enc = _Encoding(core, back)
    pool, rest, copies = enc.pool, enc.rest, enc.copies

    for combo in _member_sets(len(pool)):
        members = tuple(pool[p] for p in combo)
        horn = enc.prepare(combo, members)
        shared = False  # not built yet; None once found unsatisfiable
        for d in combo:
            if on_candidate is not None:
                on_candidate(ThetaSet(members, pool[d]), enc.view(combo, d))
            if not horn:
                raise ValueError("encoding is not Horn")
            if enc.dead[d]:
                continue
            if shared is False:
                shared = enc.closure(combo)
            if shared is None:
                continue
            values, (heads, counts, occ), lits = shared
            values = values[:]
            if not _kernels.horn_forward(heads, counts[:], occ, values,
                                         enc.units[d]):
                continue
            used = {abs(l) - 1 for l in lits} | set(enc.units[d])
            model = {atom: bool(values[a])
                     for atom, a in sorted((enc.atom(a), a) for a in used)}
            members_out = []
            designated_row = None
            for p in combo:
                for i in range(1, copies + 1):
                    row = dict(pool[p])
                    for j, v in enumerate(rest):
                        row[v] = bool(values[enc.copy_id(p, i, j)])
                    members_out.append(row)
                    if p == d and i == 1:
                        designated_row = row
            aset = AssignmentSet(tuple(members_out), designated_row)
            interp = from_assignment_set(aset)
            if not models(interp, phi):
                raise AssertionError("certificate failed the model check")
            return EvalResult("SAT", ThetaSet(members, pool[d]), model,
                              aset, interp)
    return EvalResult("UNSAT")
