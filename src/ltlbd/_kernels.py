"""Hot search kernels shared by the solvers and oracles.

Every kernel takes its clauses as a list of clauses, each a sequence of
DIMACS-style literals ±(atom+1), and leaves that list and its clauses
unchanged.  Everything runs in plain CPython.  The clause search keeps
per-literal watch lists over the clauses (MiniSat's layout), copying only
the clauses of three or more literals, whose watches move; the Horn
propagator indexes its clauses in its own arrays; the two exhaustive scans
over 2^n assignments are bit-parallel, with one Python-int truth table per
atom (``_columns``), and split their clauses the same way (``_split``).
``brute_scan`` runs its prefixes in a flat loop; ``star_scan`` walks its
global candidates depth first, in ascending order, and cuts every prefix
below which no candidate can qualify.
"""

from __future__ import annotations


def search_solve(n_atoms, clauses):
    """Conflict-driven clause search deciding atoms in index order.

    Literals are DIMACS-style ±(atom+1); a clause may repeat a literal or
    hold one with its negation.  Each decision takes the lowest unassigned
    atom, value 0 before 1, with no restarts; two watched literals,
    first-UIP learning, backjumping, and no learned clause is ever deleted.
    Unit clauses are assigned in clause order until the first empty clause
    or contradicting unit, which answers UNSAT at once.  Returns
    ``(1, values)`` on SAT and ``(0, values)`` on UNSAT, ``values`` a list
    of 0/1 (-1 unassigned).  A caller that wants another decision order
    numbers its atoms in that order.

    The SAT model is the lexicographically smallest, atom 0 first, whatever
    order propagation visits clauses in: an atom set to 1 was propagated,
    so the clauses (input and learned, all entailed by the input) imply it
    from the decisions at or below its level; each of those was made while
    this atom was unassigned, so it is a lower atom; and a model agreeing
    on the lower atoms sets them to 0 and so must set this atom to 1.

    Layout (MiniSat's; Eén and Sörensson 2003): values, watch lists, and
    the levels, reasons and marks of true literals are lists indexed by
    signed literal, the negative ones at Python's negative indices, so the
    hot loop reads ``lv[lit]`` (1 true, 0 false, -1 unassigned) with no
    sign branch.  ``watches[lit]`` holds the clauses whose position 0 or 1
    is ``lit``.  A clause of three or more literals is copied into a list
    where its watches move; a binary clause never moves one, so it is read
    in place and never written.  A reason is the clause itself.
    """
    size = 2 * n_atoms + 1
    lv = [-1] * size
    level = [0] * size  # by true literal
    reason = [None] * size  # by true literal
    seen = [0] * size  # by true literal
    watches = [[] for _ in range(size)]
    trail = [0] * n_atoms  # true literals, in assignment order
    tl = 0
    lev_start = [0] * (n_atoms + 2)

    # install watches and assign unit clauses in clause order; fail on an
    # empty clause or a contradicting unit
    for clause in clauses:
        k = len(clause)
        if k > 2:
            clause = [*clause]
        elif k < 2:
            if not k:
                return 0, lv[1:n_atoms + 1]
            lit = clause[0]
            if not lv[lit]:
                return 0, lv[1:n_atoms + 1]
            if lv[lit] < 0:
                lv[lit] = 1
                lv[-lit] = 0
                reason[lit] = clause
                trail[tl] = lit
                tl += 1
            continue
        watches[clause[0]].append(clause)
        watches[clause[1]].append(clause)

    qhead = 0
    cur_level = 0
    nxt = 1  # the literal of the lowest atom that may be unassigned
    while True:
        # propagate to fixpoint: visit the clauses watching each literal
        # that became false
        confl = None
        while qhead < tl:
            f = -trail[qhead]
            qhead += 1
            ws = watches[f]
            i = 0
            end = len(ws)
            while i < end:
                c = ws[i]
                other = c[0]
                if other == f:
                    other = c[1]
                if lv[other] == 1:
                    i += 1
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if lv[lk]:  # unassigned or true: watch it instead
                        if c[0] == f:
                            c[0] = lk
                        else:
                            c[1] = lk
                        c[k] = f
                        watches[lk].append(c)
                        end -= 1
                        ws[i] = ws[end]
                        ws.pop()
                        break
                else:
                    if not lv[other]:
                        confl = c
                        break
                    lv[other] = 1
                    lv[-other] = 0
                    level[other] = cur_level
                    reason[other] = c
                    trail[tl] = other
                    tl += 1
                    i += 1
            if confl is not None:
                break

        if confl is not None:
            if cur_level == 0:
                return 0, lv[1:n_atoms + 1]
            # first-UIP conflict analysis over true trail literals
            learnt = []
            count = 0
            btlevel = 0
            p = 0
            c = confl
            idx = tl - 1
            while True:
                for q in c:
                    t = -q
                    if q == p or seen[t] or not level[t]:
                        continue
                    seen[t] = 1
                    if level[t] >= cur_level:
                        count += 1
                    else:
                        learnt.append(q)
                        if level[t] > btlevel:
                            btlevel = level[t]
                while not seen[trail[idx]]:
                    idx -= 1
                p = trail[idx]
                idx -= 1
                seen[p] = 0
                count -= 1
                if not count:
                    break
                c = reason[p]
            for q in learnt:
                seen[-q] = 0

            # pop back to the backjump level; the lowest atom this unassigns
            # is the decision of level btlevel + 1, at trail[keep] with value
            # 0: every atom below it was assigned at a lower level
            keep = lev_start[btlevel + 1]
            for q in trail[keep:tl]:
                lv[q] = lv[-q] = -1
            nxt = -trail[keep]
            tl = keep
            qhead = keep
            cur_level = btlevel

            # learn (asserting literal first, then a literal of the
            # backjump level for the second watch) and assert
            uip = -p
            if len(learnt) > 1:
                for i, q in enumerate(learnt):
                    if level[-q] == btlevel:
                        learnt[0], learnt[i] = q, learnt[0]
                        break
            c = [uip] + learnt
            if learnt:
                watches[uip].append(c)
                watches[c[1]].append(c)
            lv[uip] = 1
            lv[p] = 0
            level[uip] = cur_level
            reason[uip] = c
            trail[tl] = uip
            tl += 1
            continue

        # decide the lowest unassigned atom, value 0 first
        while nxt <= n_atoms and lv[nxt] >= 0:
            nxt += 1
        if nxt > n_atoms:
            return 1, lv[1:n_atoms + 1]
        d = -nxt
        cur_level += 1
        lev_start[cur_level] = tl
        lv[d] = 1
        lv[-d] = 0
        level[d] = cur_level
        trail[tl] = d
        tl += 1


def horn_index(n_atoms, clauses):
    """Counter index of a Horn CNF for :func:`horn_forward`.

    Literals are DIMACS-style ±(atom+1), distinct within a clause.  Returns
    ``(heads, counts, occ, facts)``: clause ``c`` fires ``heads[c]`` (-1 for
    falsum) once all ``counts[c]`` atoms of its body are true, ``occ[a]``
    lists the clauses whose body holds atom ``a``, and ``facts`` the heads
    of the clauses with an empty body.  A tautological clause (its head also
    in its body) fires only once its head is true, so it changes nothing.
    Raises ValueError on a clause with two positive literals.
    """
    heads = [-1] * len(clauses)
    counts = [0] * len(clauses)
    occ = [[] for _ in range(n_atoms)]
    facts = []
    for ci, clause in enumerate(clauses):
        head = -1
        body = 0
        for lit in clause:
            if lit > 0:
                if head >= 0:
                    raise ValueError(f"not a Horn formula: clause {ci} has "
                                     "two positive literals")
                head = lit - 1
            else:
                occ[-lit - 1].append(ci)
                body += 1
        heads[ci] = head
        counts[ci] = body
        if body == 0:
            facts.append(head)
    return heads, counts, occ, facts


def horn_forward(heads, counts, occ, values, facts):
    """Linear forward chaining over a :func:`horn_index` (Dowling–Gallier).

    Makes each atom of ``facts`` true (-1 is falsum) and fires every clause
    whose body becomes true, updating ``values`` (0/1 per atom) and
    ``counts`` in place.  The atoms already true in ``values`` must have
    been propagated through ``counts``, as a successful earlier call leaves
    them, so a closure can be copied and extended by further facts.
    Returns None once falsum fires; otherwise the list of atoms the call
    made true, in the order it set them (empty when it sets none), and
    ``values`` is then the minimal model of the clauses, the earlier facts
    and ``facts``.
    """
    queue = []
    for a in facts:
        if a < 0:
            return None
        if not values[a]:
            values[a] = 1
            queue.append(a)
    # first in, first out: the loop also visits the heads appended below
    for a in queue:
        for ci in occ[a]:
            left = counts[ci] - 1
            counts[ci] = left
            if left == 0:
                head = heads[ci]
                if head < 0:
                    return None
                if not values[head]:
                    values[head] = 1
                    queue.append(head)
    return queue


def _columns(n):
    """Truth-table columns of ``n`` atoms as Python ints over the 2^n
    assignments: bit ``a`` of ``cols[i]`` is set iff assignment ``a`` gives
    atom ``i`` (bit n-1-i of ``a``) the value 1.

    Each column starts as one period (``half`` zeros, then ``half`` ones)
    and doubles until it spans all assignments.  Dividing the all-ones
    table by the period instead is superlinear in the table size: 4x the
    time of doubling at 12 atoms and 70x at 16 (CPython 3.11).
    """
    total = 1 << n
    cols = []
    for i in range(n):
        half = 1 << (n - 1 - i)
        col = ((1 << half) - 1) << half
        width = 2 * half
        while width < total:
            col |= col << width
            width *= 2
        cols.append(col)
    return cols


def _lowest(x):
    """Index of the lowest set bit of ``x`` > 0: the first assignment."""
    return (x & -x).bit_length() - 1


def _split(clauses, high, cols, full):
    """Per clause ``(pos, neg, table)`` for a scan split at atom ``high``.

    Atoms below ``high`` are prefix bits, atom ``a`` at bit ``high-1-a``:
    ``pos`` and ``neg`` hold the bits whose value 1, or 0, satisfies the
    clause.  Every other atom ``a`` is the truth-table column
    ``cols[a - high]``, and ``table`` is the OR of those literals' columns
    (complemented within ``full`` for negative ones).
    """
    split = []
    for clause in clauses:
        pos = neg = table = 0
        for lit in clause:
            a = abs(lit) - 1
            if a < high:
                if lit > 0:
                    pos |= 1 << (high - 1 - a)
                else:
                    neg |= 1 << (high - 1 - a)
            else:
                col = cols[a - high]
                table |= col if lit > 0 else full ^ col
        split.append((pos, neg, table))
    return split


def brute_scan(n_atoms, clauses):
    """Scan assignments in ascending order; atom i sits at bit n-1-i.

    Returns ``(1, mask)`` for the first satisfying assignment, else
    ``(0, 0)``.

    Bit-parallel over Python ints, in chunks of 2^16 assignments: the (at
    most 16) lowest-bit atoms become truth-table columns, and the atoms
    above them run as a prefix in ascending order.  Under a fixed prefix a
    clause is either satisfied outright by a prefix literal or the OR of
    its remaining literals' columns, and the chunk's models are the AND of
    those, so memory stays bounded and an early model ends the scan.
    """
    low = min(n_atoms, 16)
    high = n_atoms - low
    full = (1 << (1 << low)) - 1
    split = _split(clauses, high, _columns(low), full)
    for prefix in range(1 << high):
        ok = full
        for pos, neg, table in split:
            if prefix & pos or ~prefix & neg:
                continue
            ok &= table
            if not ok:
                break
        if ok:
            return 1, (prefix << low) | _lowest(ok)
    return 0, 0


def star_scan(n_vars, clauses, psi_mask):
    """Scan global-assignment candidates for the always-only fragment.

    Atom ``i < n_vars`` is the always-atom of variable ``i`` and atom
    ``n_vars + i`` its plain atom.  For each candidate ``g`` over the
    always-atoms (ascending, variable i at bit n-1-i), the world
    assignments ``a ⊇ g`` that satisfy every clause (always-literals read
    from ``g``, plain ones from ``a``) are the members.  Succeeds when some
    member satisfies the initial-fact mask and every variable with
    ``g``-bit 0 has a witness member where it is false.

    Returns ``(found, g, a0, witnesses)`` with ``a0`` the first qualifying
    member and ``witnesses[i]`` the first witness world mask for variable i
    (-1 where unneeded).

    The members of ``g`` are a Python-int truth table over the 2^n world
    assignments: the AND of the columns of g's true variables and of every
    clause that no always-literal satisfies under ``g``, each such clause
    being the OR of its plain literals' columns.  ``a0`` and the witnesses
    are lowest set bits.

    The candidates are walked depth first: depth i decides variable i, 0
    before 1, so the leaves come in ascending order.  A prefix's table is
    its parent's ANDed with variable i's column (when set) and with each
    clause whose highest always-atom is i and that the prefix leaves
    unsatisfied; a clause without always-literals is ANDed in at the root.
    A leaf's table is thus the candidate's member table.  Down a path the
    table only loses worlds, so a prefix whose table has no world in the
    initial-fact mask, or no world falsifying some variable it fixes to 0,
    has no qualifying leaf below it, and its subtree is cut.  Every prefix
    on the path to a leaf passed both cuts, so the first leaf reached is
    the first qualifying candidate, and its ``a0`` and witnesses are those
    of a flat scan.
    """
    n = n_vars
    cols = _columns(n)
    full = (1 << (1 << n)) - 1
    zero = [full ^ col for col in cols]  # the worlds where variable i is 0
    psi = full
    for i in range(n):
        if (psi_mask >> (n - 1 - i)) & 1:
            psi &= cols[i]
    # each clause at the depth of its highest always-atom, or at the root
    root = full
    at = [[] for _ in range(n)]
    for pos, neg, table in _split(clauses, n, cols, full):
        if pos | neg:
            at[n - 1 - _lowest(pos | neg)].append((pos, neg, table))
        else:
            root &= table
    if not root & psi:
        return 0, 0, 0, [-1] * n
    tables = [root] * (n + 1)  # tables[d]: the table of g's first d bits
    g = d = 0  # while variable d is decided, g's later bits are 0
    while d < n:
        bit = 1 << (n - 1 - d)
        member = parent = tables[d]
        if g & bit:
            member &= cols[d]
        for pos, neg, table in at[d]:
            if g & pos or ~g & neg:
                continue
            member &= table
        if member is parent:  # same table: only a new 0 needs a witness
            live = g & bit or member & zero[d]
        elif member & psi:
            live = 1
            for j in range(d + 1):
                if not (g >> (n - 1 - j)) & 1 and not member & zero[j]:
                    live = 0
                    break
        else:
            live = 0
        if live:
            d += 1
            tables[d] = member
            continue
        # cut: on to the next prefix of d + 1 bits, deciding again from the
        # variable the carry stops at
        g += bit
        if g >> n:
            return 0, 0, 0, [-1] * n
        d = n - 1 - _lowest(g)
    member = tables[n]
    wit = [-1] * n
    for i in range(n):
        if not (g >> (n - 1 - i)) & 1:
            wit[i] = _lowest(member & zero[i])
    return 1, g, _lowest(member & psi), wit
