"""Data model for clausal temporal formulas.

A formula is a conjunction of initial facts (variables that must hold at the
starting world) plus a set of clauses over temporal literals, the whole clause
part being implicitly under the "always" operator.  A temporal literal is a
propositional variable, optionally under one non-nested modality: always in
the future, always in the past, or always (both directions).
"""

from __future__ import annotations

import itertools
import operator
import re
from enum import IntEnum
from typing import Iterable, Iterator, NamedTuple

#: A variable name: a letter, then letters, digits or "_".
VAR_NAME = r"[A-Za-z][A-Za-z0-9_]*"
VAR_NAME_RE = re.compile(VAR_NAME + r"\Z")


class Mod(IntEnum):
    """Modality of a temporal literal.

    NONE is a plain propositional occurrence.  The numeric order
    (NONE < PAST < FUT < STAR) is the canonical modality order used for
    sorting literals and enumerating assignments.
    """

    NONE = 0
    PAST = 1
    FUT = 2
    STAR = 3

    @property
    def token(self) -> str:
        return _MOD_TOKEN[self]


#: Each temporal operator's letter, in the F P * order of an ``operators:``
#: line; a literal's tag is its operator's letter in brackets.
OPERATOR_LETTERS = {"F": Mod.FUT, "P": Mod.PAST, "*": Mod.STAR}

_MOD_TOKEN = {Mod.NONE: "",
              **{m: f"[{t}]" for t, m in OPERATOR_LETTERS.items()}}

#: Modalities that may appear in a formula's declared operator set.
TEMPORAL_MODS = (Mod.PAST, Mod.FUT, Mod.STAR)


def operator_set(operators: Iterable[Mod]) -> frozenset[Mod]:
    """The operators as a frozenset; ValueError unless each is one of
    ``TEMPORAL_MODS`` (a ``Mod``, not an int equal to one)."""
    ops = frozenset(operators)
    if not all(isinstance(m, Mod) and m in TEMPORAL_MODS for m in ops):
        raise ValueError(f"operator set may only contain {TEMPORAL_MODS}")
    return ops


class Lit(NamedTuple):
    """A temporal literal: a variable under at most one modality, signed."""

    var: str
    mod: Mod = Mod.NONE
    positive: bool = True

    def negated(self) -> "Lit":
        return Lit(self.var, self.mod, not self.positive)

    def __str__(self) -> str:
        sign = "" if self.positive else "~"
        return f"{sign}{self.mod.token}{self.var}"


#: Canonical literal order: negatives first, then by name, then by modality
#: order.  ``Lit`` is ``(var, mod, positive)`` and ``Mod`` an IntEnum, so
#: this C-level key orders as ``(positive, var, int(mod))``.
_lit_key = operator.itemgetter(2, 0, 1)


class Clause(tuple):
    """A disjunction of temporal literals: the tuple of its literals.

    Literals are deduplicated and stored in canonical order (negatives first,
    then variable name, then modality), so two clauses with the same literal
    set compare equal.  A builder that already holds distinct literals in
    canonical order may wrap them with ``tuple.__new__(Clause, lits)``.
    """

    __slots__ = ()

    def __new__(cls, literals: Iterable[Lit] = ()):
        return tuple.__new__(cls, sorted(set(literals), key=_lit_key))

    @property
    def literals(self) -> tuple[Lit, ...]:
        """The clause itself, read as the tuple of its literals."""
        return self

    @property
    def positive_count(self) -> int:
        return sum(1 for l in self if l.positive)

    def vars(self) -> set[str]:
        return {l.var for l in self}

    def __repr__(self) -> str:
        return f"Clause(literals={tuple.__repr__(self)})"


EMPTY_CLAUSE = Clause(())


def clause_is_horn(c: Clause) -> bool:
    """True iff the clause has at most one positive temporal literal."""
    return c.positive_count <= 1


def clause_is_krom(c: Clause) -> bool:
    """True iff the clause has at most two (distinct) literals."""
    return len(c) <= 2


def _check_name(name: str) -> None:
    if not VAR_NAME_RE.match(name):
        raise ValueError(f"invalid variable name: {name!r}")


def _unchecked(cls, *values):
    """A ``cls`` record holding ``values`` in field order, built without
    ``__init__``."""
    out = object.__new__(cls)
    out._fill(*values)
    return out


class _Record:
    """Base of the immutable value types with fields a tuple cannot name.

    A subclass lists its fields in ``__slots__``; its ``__init__`` checks
    and normalises the arguments, then sets the fields with ``_fill``.
    Equality (between records of one class) and the hash cover the fields
    of ``_compared``, by default all of them, so a record holding a dict is
    unhashable.  ``repr`` shows every field as ``Name(field=value, ...)``.
    Assigning or deleting a field raises AttributeError; pickling and
    copying rebuild a record from its fields without running ``__init__``.
    """

    __slots__ = ()
    _compared: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_compared" not in cls.__dict__:
            cls._compared = cls.__slots__

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _unchecked, (type(self),
                         *(getattr(self, name) for name in self.__slots__))


class SnfFormula(_Record):
    """Initial facts plus always-clauses with a declared operator set.

    ``operators`` is declared explicitly rather than inferred from the
    clauses: consistency of assignments and backdoor detection depend on the
    operator set even for operators that do not occur.  ``variables`` is the
    variable universe; it defaults to the variables occurring in the formula
    and is preserved by :func:`reduct` even when occurrences vanish.  It
    takes no part in equality or the hash.

    The canonical FALSE marker is a formula containing one empty clause; the
    canonical TRUE marker has no clauses and no initial facts.
    """

    __slots__ = ("operators", "initial", "clauses", "variables")
    _compared = __slots__[:3]

    operators: frozenset[Mod]
    initial: tuple[str, ...]
    clauses: tuple[Clause, ...]
    variables: tuple[str, ...]

    def __init__(self, operators: Iterable[Mod],
                 initial: Iterable[str] = (),
                 clauses: Iterable[Clause] = (),
                 variables: Iterable[str] = ()):
        operators = operator_set(operators)
        init = tuple(sorted(set(initial)))
        for v in init:
            _check_name(v)
        clauses = tuple(clauses)
        occurring = set(init)
        for c in clauses:
            occurring.update(c.vars())
        universe = occurring.union(variables)
        for v in universe:
            _check_name(v)
        self._fill(operators, init, clauses, tuple(sorted(universe)))

    @property
    def is_false(self) -> bool:
        return any(len(c) == 0 for c in self.clauses)

    @property
    def is_true(self) -> bool:
        return not self.clauses and not self.initial


def _trusted(operators: frozenset[Mod], initial: tuple[str, ...],
             clauses: tuple[Clause, ...],
             variables: tuple[str, ...]) -> SnfFormula:
    """An ``SnfFormula`` built without ``SnfFormula.__init__``'s checks: the
    caller vouches that the fields are what it would compute: a frozenset
    of temporal operators, the sorted distinct initial names, a tuple of
    clauses, and a sorted universe that holds every initial and clause
    variable, all names valid."""
    return _unchecked(SnfFormula, operators, initial, clauses, variables)


def _derived(phi: SnfFormula, initial: tuple[str, ...],
             clauses: tuple[Clause, ...]) -> SnfFormula:
    """``phi`` with other initial facts and clauses, built without
    re-validation: ``initial`` must be a subsequence of ``phi.initial`` and
    every variable of ``clauses`` one of ``phi.variables``.  Then the
    operators, names and sorted universe that ``SnfFormula.__init__``
    would compute are ``phi``'s, so they are kept."""
    return _trusted(phi.operators, initial, clauses, phi.variables)


class ConsistentAssignment:
    """Partial truth assignment over variables and their modal copies.

    Keys are ``(var, Mod.NONE)`` for the plain variable and ``(var, op)`` for
    each operator of the formula.  When the "always" copy of a variable is
    true, the plain variable and every other modal copy must be true as well.
    """

    __slots__ = ("values",)

    def __init__(self, values: dict[tuple[str, Mod], bool]):
        self.values = dict(values)
        by_var: dict[str, dict[Mod, bool]] = {}
        for (v, m), b in self.values.items():
            by_var.setdefault(v, {})[m] = bool(b)
        for v, mods in by_var.items():
            if mods.get(Mod.STAR) and not all(mods.values()):
                raise ValueError(f"inconsistent assignment for {v}: "
                                 "always-copy true but another copy false")

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.values)

    def get(self, var: str, mod: Mod = Mod.NONE):
        return self.values.get((var, mod))

    def __eq__(self, other) -> bool:
        return isinstance(other, ConsistentAssignment) and self.values == other.values

    def __repr__(self) -> str:
        items = ", ".join(
            f"{Lit(v, m)}={int(b)}" for (v, m), b in sorted(self.values.items())
        )
        return f"ConsistentAssignment({items})"


def assignment_modalities(operators: Iterable[Mod]) -> tuple[Mod, ...]:
    """Key modalities of an assignment over the given operator set."""
    return (Mod.NONE,) + tuple(m for m in TEMPORAL_MODS if m in set(operators))


def _local_choices(mods: tuple[Mod, ...]) -> list[tuple[bool, ...]]:
    """Consistent bit rows for one variable, in canonical order (0 before 1)."""
    out = []
    for bits in itertools.product((False, True), repeat=len(mods)):
        row = dict(zip(mods, bits))
        if row.get(Mod.STAR) and not all(bits):
            continue
        out.append(bits)
    return out


def consistent_assignments(
    variables: Iterable[str], operators: Iterable[Mod]
) -> Iterator[ConsistentAssignment]:
    """Yield every consistent assignment over the variables and their copies.

    The order is deterministic: variables sorted by name, modalities in the
    order NONE < PAST < FUT < STAR, and bit value 0 before 1, with earlier
    positions varying slowest.
    """
    vs = sorted(set(variables))
    mods = assignment_modalities(operators)
    choices = _local_choices(mods)
    for combo in itertools.product(choices, repeat=len(vs)):
        values = {}
        for v, bits in zip(vs, combo):
            for m, b in zip(mods, bits):
                values[(v, m)] = b
        yield ConsistentAssignment(values)


def reduct(phi: SnfFormula, theta: ConsistentAssignment) -> SnfFormula:
    """Apply a partial assignment: delete satisfied clauses, drop falsified
    literals, and discharge initial facts.

    An emptied clause turns the result into the canonical FALSE marker, as
    does a falsified initial fact or an input that already holds an empty
    clause.  Literals whose variable/modality pair is not assigned survive
    unchanged.  The variable universe is preserved.
    """
    universe = set(phi.variables)
    extra = theta.domain - universe
    if extra:
        raise ValueError(f"assignment mentions unknown variables: {sorted(extra)}")
    if phi.is_true:
        return phi

    false_marker = _derived(phi, (), (EMPTY_CLAUSE,))
    if phi.is_false:
        return false_marker
    new_init = []
    for v in phi.initial:
        val = theta.get(v, Mod.NONE)
        if val is None:
            new_init.append(v)
        elif not val:
            return false_marker
    new_clauses = []
    for c in phi.clauses:
        kept = []
        satisfied = False
        for lit in c:
            val = theta.values.get((lit.var, lit.mod))
            if val is None:
                kept.append(lit)
            elif val == lit.positive:
                satisfied = True
                break
        if satisfied:
            continue
        if not kept:
            return false_marker
        # a subsequence of a canonical clause is canonical
        new_clauses.append(tuple.__new__(Clause, kept))
    return _derived(phi, tuple(new_init), tuple(new_clauses))


# bound once for the per-literal loop: class lookups of enum members are slow
_STAR = Mod.STAR


def _tautological(c: Clause) -> bool:
    # literals sort negatives first, so a clause without a negated
    # always-literal is settled at its first positive literal
    neg_star = set()
    for var, mod, positive in c:
        if not positive:
            if mod is _STAR:
                neg_star.add(var)
        elif not neg_star:
            return False
        elif mod is not _STAR and var in neg_star:
            return True
    return False


def remove_tautologies(phi: SnfFormula) -> SnfFormula:
    """Drop the clauses that a negated always-literal makes valid.

    A clause is dropped when it holds a negated always-literal over some
    variable together with a positive plain, past, or future literal over
    the same variable, so only clauses holding a negated always-literal are
    tested.  Every consistent assignment satisfies a dropped clause; on
    clauses without a literal next to its exact negation, the dropped ones
    are exactly those.  Satisfiability is preserved.
    """
    return _derived(phi, phi.initial,
                    tuple(c for c in phi.clauses if not _tautological(c)))


class Violation(NamedTuple):
    kind: str
    message: str


def _undeclared_literals(phi: SnfFormula) -> Iterator[Lit]:
    """The clause literals whose operator the formula does not declare."""
    allowed = {Mod.NONE, *phi.operators}
    for c in phi.clauses:
        for lit in c:
            if lit.mod not in allowed:
                yield lit


def check_operators(phi: SnfFormula,
                    fragment: Iterable[Mod] = TEMPORAL_MODS) -> None:
    """Admit a formula to a procedure that handles the operators of
    ``fragment``: raise ValueError if a clause uses an operator the formula
    does not declare (the ``undeclared-operator`` violation of
    :func:`validate_normal_form`) or if it declares one outside ``fragment``.
    """
    if next(_undeclared_literals(phi), None) is not None:
        raise ValueError(
            "a clause uses an operator the formula does not declare")
    outside = sorted(phi.operators.difference(fragment))
    if outside:
        raise ValueError("the formula declares an operator outside the "
                         "fragment: " + " ".join(m.token for m in outside))


def validate_normal_form(phi: SnfFormula) -> list[Violation]:
    """Diagnose normal-form violations; an empty list means valid.

    Nesting and non-clausal structure cannot be represented by this data
    model and are rejected at parse time, so the reachable violations are an
    undeclared operator in a clause and an initial fact absent from the
    clause part.
    """
    out = [Violation("undeclared-operator",
                     f"literal {lit} uses an operator outside the declared set")
           for lit in _undeclared_literals(phi)]
    clause_vars = set()
    for c in phi.clauses:
        clause_vars.update(c.vars())
    for v in phi.initial:
        if v not in clause_vars:
            out.append(Violation(
                "initial-not-in-clauses",
                f"initial fact {v} does not occur in any clause"))
    return out
