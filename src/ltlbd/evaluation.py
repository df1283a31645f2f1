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

The encodings are built on integers, not on :class:`~ltlbd.propsat.Atom`:

* Block cache.  A block's reduct depends only on its assignment θ and the
  set's unanimity vector (the always-copies in :func:`global_assignment`),
  so it is reduced once per such key and kept as integer clauses.  Atom ids
  are laid out so that the copies of a block differ only by an offset, and
  one template serves both copy counts.
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

A :class:`PropCnf` is made only when asked for, for ``on_candidate`` and
:func:`build_horn_encoding`.  It is the full (r+1)-copy encoding, built from
the same block templates: it maps S on r+1 copies back to atoms, clause for
clause, and puts the initial facts (``()`` for each falsified backdoor fact)
between the blocks and the consistency clauses.  Its minimal model is the
one evaluation reports.
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
    """The candidate encodings of one formula and backdoor, on integers.

    Atom layout for ``copies`` world copies per block: the global atom of
    ``rest[j]`` is ``j``, and copy ``i`` (1-based) of ``rest[j]`` in the
    block of pool member ``p`` is ``r + ((p * copies) + i - 1) * r + j``
    with ``r = len(rest)``.  A block's literals therefore differ between
    copies and members only by an offset, and one template per block serves
    every layout.  :meth:`atom` maps an id back to its :class:`Atom`.

    Two layouts are used.  The bounded-witness encoding has ``full = r + 1``
    copies; :meth:`view` maps it back to atoms.  Evaluation solves its
    quotient on ``solved = min(r + 1, 2)`` copies, copy 1 and one copy
    standing for copies 2..r+1, which has the same least model on the atoms
    they share (module docstring); :meth:`certificate` reads the full
    layout's model and rows off it.
    """

    def __init__(self, phi: SnfFormula, backdoor: tuple[str, ...]):
        self.back = backdoor
        self.rest = sorted(set(phi.variables) - set(backdoor))
        r = len(self.rest)
        self.full = r + 1
        self.solved = min(r + 1, 2)
        self.pool = assignments_over(backdoor)
        self.initial = phi.initial
        self.clause_part = SnfFormula(phi.operators, (), phi.clauses,
                                      variables=phi.variables)
        self.slot = {v: j for j, v in enumerate(self.rest)}
        self.labels = [_theta_label(theta) for theta in self.pool]
        # (member, unanimity mask) -> (literals of copy 1 of member 0,
        # their +1/-1 shift signs, clause lengths)
        self.templates: dict = {}
        # (member, mask, copies) -> (literals, clause lengths) of all copies
        self.blocks: dict = {}
        # copies -> (the last member set, its shared clauses); then that
        # set's full-layout atom view
        self.shared_for: dict = {}
        self.view_for: tuple = ((), None)
        self.lit_table: Optional[list] = None
        # copies -> per member, per rest[j]: the ties, the negated copies
        self.tie_lists: dict = {}
        # per member: is it dead, and its initial facts as solved copy-1 ids
        self.dead = [any(v in theta and not theta[v] for v in phi.initial)
                     for theta in self.pool]
        self.units = [[self.copy_id(p, 1, self.slot[v], self.solved)
                       for v in phi.initial if v not in theta]
                      for p, theta in enumerate(self.pool)]

    def n_atoms(self, copies: int) -> int:
        r = len(self.rest)
        return r + len(self.pool) * copies * r

    def copy_id(self, p: int, i: int, j: int, copies: int) -> int:
        r = len(self.rest)
        return r + (p * copies + i - 1) * r + j

    def atom(self, a: int, copies: int) -> Atom:
        r = len(self.rest)
        if a < r:
            return global_atom(self.rest[a])
        q, j = divmod(a - r, r)
        p, i = divmod(q, copies)
        return copy_atom(self.rest[j], i + 1, self.labels[p])

    def index(self, theta: dict) -> int:
        """Pool position of an assignment over the backdoor."""
        p = 0
        for v in self.back:
            p = 2 * p + bool(theta[v])
        return p

    def _code(self, lit) -> int:
        """Signed id (±(atom+1)) of a literal in copy 1 of pool member 0.
        The reduct assigns both atoms of every backdoor variable, so every
        plain or always-literal left is over ``rest``."""
        if lit.mod is _NONE:
            a = len(self.rest) + self.slot[lit.var]
        elif lit.mod is _STAR:
            a = self.slot[lit.var]
        else:
            raise ValueError(
                f"literal {lit} outside the always-only fragment")
        return a + 1 if lit.positive else -(a + 1)

    def block(self, p: int, mask: int, members: tuple, copies: int) -> tuple:
        """Every copy of member ``p``'s block for a set of unanimity
        ``mask``: the reduct under :func:`global_assignment`, computed once
        per ``(p, mask)`` and shifted to each of ``copies`` copies."""
        key = (p, mask, copies)
        if key not in self.blocks:
            if (p, mask) not in self.templates:
                glob = global_assignment(members, self.back, self.pool[p])
                template = [[self._code(lit) for lit in c]
                            for c in reduct(self.clause_part, glob).clauses]
                if any(sum(l > 0 for l in c) > 1 for c in template):
                    raise AssertionError(
                        "encoding of a verified backdoor must be Horn")
                r = len(self.rest)
                flat = [l for c in template for l in c]
                # +1/-1 on the literals of copy 1 of member 0, which shift
                shift = [(l > 0) - (l < 0) if r < abs(l) <= 2 * r else 0
                         for l in flat]
                self.templates[(p, mask)] = (flat, shift,
                                             [len(c) for c in template])
            flat, shift, lens = self.templates[(p, mask)]
            lits = []
            for i in range(1, copies + 1):
                off = self.copy_id(p, i, 0, copies) - len(self.rest)
                lits += [l + s * off for l, s in zip(flat, shift)]
            self.blocks[key] = (lits, lens * copies)
        return self.blocks[key]

    def ties(self, copies: int) -> tuple:
        """``(ties, negs)`` per member and ``rest[j]``: the clauses
        ``¬g ∨ c`` tying the global atom of ``rest[j]`` to each of its
        copies, and the negated copies."""
        if copies not in self.tie_lists:
            ties, negs = [], []
            for p in range(len(self.pool)):
                member_ties, member_negs = [], []
                for j in range(len(self.rest)):
                    ids = [self.copy_id(p, i, j, copies) + 1
                           for i in range(1, copies + 1)]
                    member_ties.append([l for c in ids for l in (-(j + 1), c)])
                    member_negs.append([-c for c in ids])
                ties.append(member_ties)
                negs.append(member_negs)
            self.tie_lists[copies] = (ties, negs)
        return self.tie_lists[copies]

    def shared(self, combo: tuple[int, ...], members: tuple,
               copies: int) -> tuple:
        """The clauses a member set's candidates share, in dump order:
        ``(lits, starts, n_blocks)``.  The first ``n_blocks`` clauses are the
        blocks (members in order, copies in order); then, per variable
        ``rest[j]``, the ties ``¬g ∨ c`` for every copy and ``g ∨ ¬c…``."""
        last = self.shared_for.get(copies)
        if last is None or last[0] != combo:
            mask = _unanimity(combo, len(self.pool))
            lits, lens = [], []
            for p in combo:
                block_lits, block_lens = self.block(p, mask, members, copies)
                lits += block_lits
                lens += block_lens
            n_blocks = len(lens)
            ties, negs = self.ties(copies)
            n_ties = [2] * (len(combo) * copies)
            for j in range(len(self.rest)):
                wide = [j + 1]
                for p in combo:
                    lits += ties[p][j]
                    wide += negs[p][j]
                lits += wide
                lens += n_ties
                lens.append(len(wide))
            starts = [0, *itertools.accumulate(lens)]
            last = self.shared_for[copies] = (combo, (lits, starts, n_blocks))
        return last[1]

    def closure(self, combo: tuple[int, ...], members: tuple) -> tuple:
        """Minimal model of the solved layout of the clauses a member set's
        candidates share: ``(values, (heads, counts, occ))``, or None when
        they are unsatisfiable."""
        lits, starts, _ = self.shared(combo, members, self.solved)
        n_atoms = self.n_atoms(self.solved)
        heads, counts, occ, facts = _kernels.horn_index(n_atoms, lits, starts)
        values = [0] * n_atoms
        if not _kernels.horn_forward(heads, counts, occ, values, facts):
            return None
        return values, (heads, counts, occ)

    def certificate(self, combo: tuple[int, ...], d: int,
                    values: list) -> tuple:
        """``(horn_model, assignment_set)`` of a satisfied candidate, from
        the least model ``values`` of its solved layout: copy ``i`` of a
        block reads copy ``min(i, solved)``.

        The model covers every atom of the full layout's clauses, the copies
        of the members and the globals, in sorted :class:`Atom` order as
        :func:`~ltlbd.propsat.horn_sat` lists it: copies by variable, copy
        index and label (pool order is label order), then the globals.  The
        rows are copies 1 and 2 of each member; copies 3..r+1 equal copy 2,
        so the rows the :class:`AssignmentSet` keeps are the same."""
        c = self.solved
        model = {}
        for j, v in enumerate(self.rest):
            for i in range(1, self.full + 1):
                for p in combo:
                    model[Atom("copy", v, i, self.labels[p])] = bool(
                        values[self.copy_id(p, min(i, c), j, c)])
        for j, v in enumerate(self.rest):
            model[global_atom(v)] = bool(values[j])
        rows = []
        for p in combo:
            for i in range(1, c + 1):
                row = dict(self.pool[p])
                for j, v in enumerate(self.rest):
                    row[v] = bool(values[self.copy_id(p, i, j, c)])
                rows.append(row)
        return model, AssignmentSet(tuple(rows), rows[combo.index(d) * c])

    def view(self, combo: tuple[int, ...], members: tuple,
             d: int) -> PropCnf:
        """The full-layout encoding of one candidate as a :class:`PropCnf`:
        the shared clauses mapped back to atoms, with the designated
        member's initial facts between the blocks and the ties."""
        full = self.full
        if self.lit_table is None:
            atoms = [self.atom(a, full) for a in range(self.n_atoms(full))]
            # lit_table[l] for l = ±(a+1); a negative l indexes from the end
            self.lit_table = ([None] + [(a, True) for a in atoms]
                              + [(a, False) for a in reversed(atoms)])
        lits, starts, n_blocks = self.shared(combo, members, full)
        table = self.lit_table
        if self.view_for[0] != combo:
            clauses = tuple(tuple([table[l] for l in lits[s:e]])
                            for s, e in zip(starts, starts[1:]))
            self.view_for = (combo, clauses)
        clauses = self.view_for[1]
        # a falsified backdoor fact is an empty clause (a dead candidate),
        # any other fact a unit on copy 1 of the designated block
        designated = self.pool[d]
        facts = tuple(() if v in designated
                      else (table[self.copy_id(d, 1, self.slot[v], full) + 1],)
                      for v in self.initial if not designated.get(v))
        return PropCnf.from_normal(clauses[:n_blocks] + facts
                                   + clauses[n_blocks:])


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
    return enc.view(combo, ts.members, enc.index(ts.designated))


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
        shared = False  # not built yet; None once found unsatisfiable
        for d in combo:
            if on_candidate is not None:
                on_candidate(ThetaSet(members, pool[d]),
                             enc.view(combo, members, d))
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
