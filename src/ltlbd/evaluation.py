"""Backdoor evaluation for the always-only fragment.

Given a strong Horn backdoor X, satisfiability is decided by enumerating
candidate sets of assignments over X together with a designated member, and
solving one propositional Horn formula per candidate.  The bounded-witness
encoding lays out r+1 world copies per assignment block (r non-backdoor
variables), shares one global atom per remaining variable across all copies,
and ties the two together with consistency clauses (``¬g ∨ c`` for every
copy c of g's variable, ``g ∨ ¬c…`` over those copies), so its models are
exactly the bounded assignment sets witnessing satisfiability.

One copy per member, plus the designated member's copy 1, decide a
candidate.  The designated member's initial facts are units on its copy 1;
nothing else tells copies apart.  Permuting its copies 2..r+1, or all copies
of another member, therefore maps the clause set onto itself and fixes every
unit, and the least model of a Horn formula is unique, so it is constant on
those copies.  Merging them gives the quotient: each member's block on one
copy, plus one more instance of the designated member's block, its copy 1,
carrying the units (with r = 0 every copy is empty).  A model of the
quotient, read back on every merged copy, is a model of the full encoding,
and the least model of the full encoding projects to a model of the
quotient; so the quotient is satisfiable exactly when the full encoding is,
and its least model is the projection of the full one.  Its size is linear
in r, where the full encoding's is quadratic.

Lemma: in the quotient's least model, copy 1 holds every atom true on the
designated member's own copy.  By induction on forward chaining: both
copies have the same block clauses over the same globals and the same ties
``¬g ∨ c``, so a clause that makes an own-copy atom true has its copy-1
twin's body true too.  Hence the closure a member set's candidates share,
without copy 1, may fire ``g ∨ ¬c…`` over the other copies alone (each step
holds in every candidate's least model), and a candidate may start its copy
1 from the designated member's copy in that closure.

It is built on integers, not on :class:`~ltlbd.propsat.Atom`:

* Clause codes.  Each clause of the core is coded once per call: its
  backdoor literals as bit masks over pool positions, its other literals as
  one list of kernel literals over a block's 2r local atoms (the r globals,
  then its copy).  A block's reduct depends only on its member θ and the
  set's unanimity mask (the always-copies in :func:`global_assignment`), so
  it is a filter over those codes: a clause that some backdoor literal
  satisfies goes, the others keep their literal lists.  No
  :func:`~ltlbd.formula.reduct` runs and no :class:`Clause` is built.
* Blocks indexed once.  Each (member, mask) block's kept lists are indexed
  once per call by :func:`ltlbd._kernels.horn_index`, with its own closure,
  no global true.  If that closure derives falsum, every set holding the
  block is unsatisfiable: Horn closure is monotone in the clauses.
* Chaining across blocks.  A candidate's quotient is its block instances,
  sharing only the globals, and the ties.  Its least model is reached from
  the blocks' own closures, each contained in it, by forward chaining
  (Dowling and Gallier, 1984): each instance fires its own clauses, a
  global true in one instance is a fact in all, with its copy
  (``¬g ∨ c``), and a global whose copies are all true becomes true
  (``g ∨ ¬c…``).  Every step derives an atom of the least model by one of
  the quotient's clauses, and at the end every clause whose body holds has
  its head true, so the values are that least model.  A block's values and
  counts are copied the first time the chaining changes them, so the
  cached blocks are never written.
* Factoring.  The candidates of one member set share everything but the
  designated copy 1 and its initial-fact units U.  Each variant forks the
  set's closure with that copy 1 (the lemma) and extends it by U through
  the same chaining.  If the set's closure derives falsum, so does every
  variant; a variant whose designated member falsifies a backdoor initial
  fact (a dead candidate, holding an empty clause) needs no solve, and a
  set whose variants are all dead indexes no block.
* One Horn kernel.  Every block is indexed by
  :func:`ltlbd._kernels.horn_index` and every closure and extension runs
  :func:`ltlbd._kernels.horn_forward`, the same index and propagator behind
  :func:`~ltlbd.propsat.horn_sat`.

On SAT the certificate is the quotient's rows, each member's copy and the
designated copy 1: the distinct rows of the full encoding's least model.

:func:`candidate_encodings` yields each candidate's full (r+1)-copy
encoding, built from its definition: per member, :func:`reduct` →
:func:`propositionalize` → :func:`relabel_copy` for copies 1..r+1, then the
designated member's initial facts (``()`` if falsified), then the
consistency clauses.  It shares no integer code with the solve, so its
minimal model's rows are the certificate, a cross-check of the quotient.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Optional

from .detection import HORN, verify_backdoor
from .formula import (ConsistentAssignment, Mod, SnfFormula, Clause,
                      check_operators, _derived, remove_tautologies, reduct)
from .interp import (AssignmentSet, FiniteWindowInterpretation,
                     from_assignment_set, models)
from . import _kernels
from .propsat import PropCnf, copy_atom, global_atom, plain_atom

# bound once for the per-literal loops: class lookups of enum members are slow
_NONE = Mod.NONE

#: Evaluation handles at most this many backdoor variables: k variables
#: give 2^(2^k) - 1 member sets, about 4.3·10^9 at k = 5.
EVAL_BACKDOOR_LIMIT = 4


class BackdoorError(ValueError):
    """A supplied set that names a variable the formula lacks or fails
    :func:`~ltlbd.detection.verify_backdoor` for the Horn class."""


def _admit(phi: SnfFormula, backdoor: Iterable[str]) -> tuple:
    """The tautology-free core and the sorted backdoor, once admitted."""
    check_operators(phi, (Mod.STAR,))
    core = remove_tautologies(phi)
    back = tuple(sorted(set(backdoor)))
    unknown = sorted(set(back) - set(core.variables))
    if unknown:
        raise BackdoorError("supplied set names variables the formula "
                            "lacks: " + ", ".join(unknown))
    if not verify_backdoor(core, back, HORN):
        raise BackdoorError("supplied set is not a strong Horn backdoor")
    if len(back) > EVAL_BACKDOOR_LIMIT:
        raise ValueError(f"backdoor evaluation limited to "
                         f"{EVAL_BACKDOOR_LIMIT} backdoor variables, "
                         f"got {len(back)}")
    return core, back


class EvalResult(NamedTuple):
    """The answer of :func:`evaluate_horn_star`.

    * ``verdict``: "SAT" or "UNSAT"; the other fields are None on UNSAT.
    * ``theta_set``: the first satisfied candidate, an
      :class:`~ltlbd.interp.AssignmentSet` over the backdoor whose
      ``initial`` is the designated member.
    * ``assignment_set``: its certificate, the distinct rows of the least
      model of its encoding (each member's copy of the quotient, members in
      order, the designated member's copy 1 just before its own copy), with
      that copy 1 as the initial row.
    * ``interpretation``: that set laid out by
      :func:`~ltlbd.interp.from_assignment_set`; it models the formula.
    * ``tried``: how many candidates were tried, in order, up to and
      including the satisfied one (all on UNSAT).  The satisfied one's full
      encoding is the ``tried``-th item of :func:`candidate_encodings`.
    """

    verdict: str
    theta_set: Optional[AssignmentSet] = None
    assignment_set: Optional[AssignmentSet] = None
    interpretation: Optional[FiniteWindowInterpretation] = None
    tried: int = 0

    @property
    def satisfiable(self) -> bool:
        return self.verdict == "SAT"


def assignments_over(variables: Iterable[str]) -> list[dict]:
    """All assignments over the variables, lexicographic (sorted names,
    earlier variables most significant, false before true)."""
    vs = sorted(set(variables))
    return [dict(zip(vs, bits))
            for bits in itertools.product((False, True), repeat=len(vs))]


def candidate_theta_sets(variables: Iterable[str]) -> Iterator[AssignmentSet]:
    """Candidates in deterministic order: sets by increasing cardinality,
    then lexicographic member indices; the designated member, ``initial``,
    in set order."""
    pool = assignments_over(variables)
    for combo in _member_sets(len(pool)):
        members = tuple(pool[i] for i in combo)
        for designated in members:
            yield AssignmentSet(members, designated)


def global_assignment(members: Iterable[dict], variables: Iterable[str],
                      local: dict) -> ConsistentAssignment:
    """Unanimity-derived assignment to the always-copies of ``variables``:
    the always-copy of v is true iff every member sets v true.  The plain
    copies take the values of ``local``."""
    members = list(members)
    values = {}
    for v in variables:
        values[(v, Mod.STAR)] = all(m[v] for m in members)
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
    atoms (and atoms over other variables) are shared untouched.

    Without copy atoms in ``cnf`` the relabelling is injective on atoms, so
    its duplicate-free clauses stay duplicate-free and are wrapped as they
    are; otherwise a copy may meet its own plain atom's image and the result
    is normalised again."""
    if index < 1:
        raise ValueError("copy index must be >= 1")
    copies = {v: copy_atom(v, index, label) for v in variables}
    has_copy = False
    out = []
    for c in cnf.clauses:
        lits = []
        for atom, pos in c:
            kind = atom.kind
            if kind == "plain":
                atom = copies.get(atom.var, atom)
            elif kind == "copy":
                has_copy = True
            lits.append((atom, pos))
        out.append(tuple(lits))
    return PropCnf(out) if has_copy else PropCnf.from_normal(tuple(out))


def _theta_label(theta: dict) -> str:
    return "".join("1" if theta[v] else "0" for v in sorted(theta))


def _member_sets(n: int) -> Iterator[tuple[int, ...]]:
    """Nonempty index sets of an n-member pool, by increasing cardinality,
    then lexicographic."""
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


class _Block:
    """One member's block for one unanimity mask, indexed once on 2r local
    atoms: the global of ``rest[j]`` is ``j`` and its copy is ``r + j``.
    ``heads``, ``counts`` and ``occ`` are the
    :func:`~ltlbd._kernels.horn_index` of its clauses; ``values`` and
    ``counts`` are its closure with no global true.  Bit j of ``derived``
    says that closure makes global j true, and bit j of ``tied`` that it
    makes the copy of ``rest[j]`` true.  Never changed once built."""

    __slots__ = ("heads", "counts", "occ", "values", "derived", "tied")

    def __init__(self, heads, counts, occ, values, derived, tied):
        self.heads = heads
        self.counts = counts
        self.occ = occ
        self.values = values
        self.derived = derived
        self.tied = tied


class _Chain:
    """Forward chaining over a quotient, block instance by instance.

    Per instance (one per member in set order, then the designated copy 1
    once forked) it holds ``values`` and ``counts``, shared with the cached
    :class:`_Block` (or the state it was forked from) until it first changes
    them (``owned``); ``gvals`` are the global atoms.  The copy of
    ``rest[j]`` is ``j + r`` in every instance."""

    __slots__ = ("blocks", "values", "counts", "owned", "gvals", "r")

    def __init__(self, blocks: list, r: int):
        self.blocks, self.r = blocks, r
        self.values = [block.values for block in blocks]
        self.counts = [block.counts for block in blocks]
        self.owned = [False] * len(blocks)
        self.gvals = [0] * r

    def fork(self, b: int) -> "_Chain":
        """A copy of this chain with one more instance of block ``b``,
        starting from instance b's current values."""
        new = object.__new__(_Chain)
        new.blocks, new.r = self.blocks + [self.blocks[b]], self.r
        new.values = self.values + [self.values[b]]
        new.counts = self.counts + [self.counts[b]]
        new.owned = [False] * len(new.blocks)
        new.gvals = self.gvals[:]
        return new

    def extend(self, b: int, facts, pending: list) -> bool:
        """Chain ``facts`` (local atoms) in instance ``b``; False on
        falsum.  A global it makes true goes to ``pending``, and so does the
        global of a copy it makes true once that variable's copy is true in
        every instance (``g ∨ ¬c…``)."""
        values = self.values[b]
        facts = [a for a in facts if not values[a]]
        if not facts:
            return True
        if not self.owned[b]:
            self.owned[b] = True
            values = self.values[b] = values[:]
            self.counts[b] = self.counts[b][:]
        block = self.blocks[b]
        trail = _kernels.horn_forward(block.heads, self.counts[b], block.occ,
                                      values, facts)
        if trail is None:
            return False
        r, gvals, all_values = self.r, self.gvals, self.values
        for a in trail:
            j = a % r
            if not gvals[j] and (a < r or all(v[j + r] for v in all_values)):
                pending.append(j)
        return True

    def settle(self, pending: list) -> bool:
        """Make each pending global true: a fact in every instance, with
        its copy (``¬g ∨ c``), until nothing is pending; False on falsum."""
        r, gvals = self.r, self.gvals
        while pending:
            j = pending.pop()
            if gvals[j]:
                continue
            gvals[j] = 1
            facts = (j, j + r)
            for b in range(len(self.blocks)):
                if not self.extend(b, facts, pending):
                    return False
        return True


class _Encoding:
    """The candidate encodings of one formula and backdoor, solved as the
    quotient (module docstring) on integers.

    Each clause of the core is coded once: its backdoor literals as four
    bit masks over pool positions (plain positive, plain negative, always
    positive, always negative), and its literals over ``rest`` as one list
    of :func:`~ltlbd._kernels.horn_index` literals on local atoms: the
    always-literal of ``rest[j]`` is ±(j+1), its plain literal ±(r+j+1).
    That map is injective on (variable, modality, sign), so each list holds
    distinct literals.  Member ``p``'s block for a set of unanimity ``mask``
    keeps the clauses that no backdoor literal satisfies (:class:`_Block`).
    """

    def __init__(self, phi: SnfFormula, backdoor: tuple[str, ...]):
        self.rest = sorted(set(phi.variables) - set(backdoor))
        r = len(self.rest)
        self.pool = assignments_over(backdoor)
        slot = {v: j for j, v in enumerate(self.rest)}
        k = len(backdoor)
        bit = {v: 1 << (k - 1 - i) for i, v in enumerate(backdoor)}
        self.codes = []
        for clause in phi.clauses:
            masks = [0, 0, 0, 0]
            lits = []
            for var, mod, positive in clause:
                if var in bit:
                    # admitted input holds no [P] or [F] literal
                    masks[(mod is not _NONE) * 2 + (not positive)] |= bit[var]
                else:
                    atom = slot[var] + (r if mod is _NONE else 0) + 1
                    lits.append(atom if positive else -atom)
            self.codes.append((*masks, lits))
        # (member, unanimity mask) -> its _Block, or None when its closure
        # alone derives falsum; each key is indexed once
        self.blocks: dict = {}
        # per member: is it dead, and its initial facts as local copy atoms
        self.dead = [any(v in theta and not theta[v] for v in phi.initial)
                     for theta in self.pool]
        self.units = [[r + slot[v] for v in phi.initial if v not in theta]
                      for theta in self.pool]

    def _index(self, p: int, mask: int) -> Optional[_Block]:
        """The reduct of the core under :func:`global_assignment` (plain
        backdoor atoms read ``p``, always-atoms ``mask``), indexed on the
        block's local atoms."""
        r = len(self.rest)
        not_p, not_mask = ~p, ~mask
        kept = [lits for pos_plain, neg_plain, pos_star, neg_star, lits
                in self.codes
                if not (p & pos_plain or not_p & neg_plain or mask & pos_star
                        or not_mask & neg_star)]
        try:
            heads, counts, occ, facts = _kernels.horn_index(2 * r, kept)
        except ValueError:
            raise AssertionError(
                "encoding of a verified backdoor must be Horn") from None
        values = [0] * (2 * r)
        trail = _kernels.horn_forward(heads, counts, occ, values, facts)
        if trail is None:
            return None
        derived = tied = 0
        for a in trail:
            if a < r:
                derived |= 1 << a
            else:
                tied |= 1 << a - r
        return _Block(heads, counts, occ, values, derived, tied)

    def closure(self, combo: tuple[int, ...]) -> Optional[_Chain]:
        """Minimal model of the clauses a member set's candidates share (its
        blocks and the ties), or None when they are unsatisfiable."""
        mask = _unanimity(combo, len(self.pool))
        cache = self.blocks
        blocks = []
        for p in combo:
            key = (p, mask)
            if key not in cache:
                cache[key] = self._index(p, mask)
            if cache[key] is None:
                return None
            blocks.append(cache[key])
        derived, tied = 0, -1
        for block in blocks:
            derived |= block.derived
            tied &= block.tied
        pending = []
        bits = derived | tied
        while bits:
            low = bits & -bits
            pending.append(low.bit_length() - 1)
            bits ^= low
        state = _Chain(blocks, len(self.rest))
        return state if state.settle(pending) else None

    def variant(self, shared: _Chain, combo: tuple[int, ...],
                d: int) -> Optional[_Chain]:
        """Minimal model of designated member ``d``'s candidate: the set's
        closure forked with ``d``'s copy 1, extended by ``d``'s units; None
        when it is unsatisfiable."""
        state = shared.fork(combo.index(d))
        pending = []
        if not (state.extend(len(combo), self.units[d], pending)
                and state.settle(pending)):
            return None
        return state

    def certificate(self, combo: tuple[int, ...], d: int,
                    state: _Chain) -> AssignmentSet:
        """The certificate of a satisfied candidate, from the least model
        ``state`` of its quotient: each member's copy in ``combo`` order,
        with copy 1 of ``d`` just before ``d``'s own copy as the initial
        row.  Where those two rows are equal, the set keeps one."""
        r = len(self.rest)
        copy1 = state.values[-1]
        rows = []
        for p, values in zip(combo, state.values):
            for copy in (copy1, values) if p == d else (values,):
                row = dict(self.pool[p])
                row.update(zip(self.rest, map(bool, copy[r:])))
                rows.append(row)
        return AssignmentSet(tuple(rows), rows[combo.index(d)])


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
    clause_part = _derived(phi, (), phi.clauses)
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


def _encodings(core: SnfFormula, back: tuple[str, ...]) -> Iterator[tuple]:
    for ts in candidate_theta_sets(back):
        theta = ts.initial
        if theta == ts.members[0]:  # the first candidate of a member set
            blocks, ties = _full_encoding(core, back, ts.members)
        label = _theta_label(theta)
        # a fact the member's backdoor value falsifies is an empty clause
        facts = tuple(() if v in theta else ((copy_atom(v, 1, label), True),)
                      for v in core.initial if not theta.get(v))
        yield ts, PropCnf.from_normal(blocks + facts + ties)


def candidate_encodings(phi: SnfFormula, backdoor: Iterable[str]
                        ) -> Iterator[tuple[AssignmentSet, PropCnf]]:
    """``(theta set, PropCnf)`` per candidate of :func:`evaluate_horn_star`,
    in its order: the theta set as :func:`candidate_theta_sets` yields it,
    and the full encoding of the tautology-free core, built from its
    definition.  Before the first item it raises what
    :func:`evaluate_horn_star` raises."""
    yield from _encodings(*_admit(phi, backdoor))


def encoding_size_bound(phi: SnfFormula, backdoor: Iterable[str]) -> int:
    """Closed-form clause-count bound on any candidate encoding."""
    k = len(set(backdoor))
    r = len(set(phi.variables) - set(backdoor)) + 1
    size = len(phi.clauses) + len(phi.initial)
    return (1 << k) * r * size + 2 * (1 << k) * r * r


def evaluate_horn_star(phi: SnfFormula, backdoor: Iterable[str],
                       on_candidate=None) -> EvalResult:
    """Decide satisfiability through a strong Horn backdoor.

    Tautological clauses are dropped first (they hold in every
    interpretation, and detected backdoors are backdoors of that core).
    Candidates are tried in the order of :func:`candidate_theta_sets` with a
    short-circuit on the first satisfiable encoding, so the certificate is
    reproducible.  On SAT the certificate is re-checked against the original
    formula.  Before any candidate, in this order, it raises ValueError for
    a formula outside the always-only fragment, :class:`BackdoorError`
    unless ``backdoor`` is a strong Horn backdoor of the core, and
    ValueError for more than :data:`EVAL_BACKDOOR_LIMIT`.

    ``on_candidate(ts, cnf)`` is replayed after the solve over the first
    ``result.tried`` items of :func:`candidate_encodings`, from the one
    admission above; ``ltlbd evaluate --dump-cnf`` writes its dumps through
    it, and the counters of ``perfbench/spans.py`` read it.
    """
    core, back = _admit(phi, backdoor)
    result = _solve(phi, core, back)
    if on_candidate is not None:
        for ts, cnf in itertools.islice(_encodings(core, back), result.tried):
            on_candidate(ts, cnf)
    return result


def _solve(phi: SnfFormula, core: SnfFormula, back: tuple) -> EvalResult:
    enc, tried = _Encoding(core, back), 0
    for combo in _member_sets(len(enc.pool)):
        shared = False  # not built yet; None once found unsatisfiable
        for d in combo:
            tried += 1
            if enc.dead[d]:
                continue
            if shared is False:
                shared = enc.closure(combo)
            if shared is None:
                continue
            state = enc.variant(shared, combo, d)
            if state is None:
                continue
            aset = enc.certificate(combo, d, state)
            interp = from_assignment_set(aset)
            if not models(interp, phi):
                raise AssertionError("certificate failed the model check")
            theta = AssignmentSet([enc.pool[p] for p in combo], enc.pool[d])
            return EvalResult("SAT", theta, aset, interp, tried)
    return EvalResult("UNSAT", tried=tried)
