"""Hot search kernels shared by the solvers and oracles.

Every kernel takes its clauses in one flat layout: a list of DIMACS-style
literals ±(atom+1) plus a list of clause start offsets
(``starts[c]..starts[c+1]`` holds clause ``c``).
Everything runs in plain CPython.  The clause search and the Horn
propagator walk those lists; the two exhaustive scans over 2^n assignments
are bit-parallel, with one Python-int truth table per atom (``_columns``),
and split their clauses the same way (``_split``).
"""

from __future__ import annotations


def search_solve(n_atoms, lits_in, starts_in, order):
    """Conflict-driven clause search with a fixed decision order.

    Literals are DIMACS-style ±(atom+1).  Decisions follow ``order`` with
    value 0 before 1 and never restart, and assignments flip to 1 only
    through entailed learned clauses, so the returned model is the
    lexicographically smallest one with respect to that atom order.
    Two-watched-literal propagation, first-UIP learning, non-chronological
    backjumping; no clause deletion.  Decisions read ``order`` through a
    pointer instead of rescanning it from the start: every atom before the
    pointer is assigned, a decision moves it past assigned atoms, and a
    backjump lowers it to the first position of each atom it unassigns, so
    each decision picks the atom a rescan would.  Returns
    ``(1, values)`` on SAT and ``(0, values)`` on UNSAT, ``values`` a list
    of 0/1 (-1 unassigned).
    """
    n0 = len(starts_in) - 1
    lits = list(lits_in)
    starts = list(starts_in)

    val = [-1] * n_atoms
    level = [0] * n_atoms
    reason = [-1] * n_atoms
    trail = [0] * n_atoms
    trail_len = 0
    qhead = 0
    lev_start = [0] * (n_atoms + 2)
    cur_level = 0

    watch_head = [-1] * (2 * n_atoms)
    watch_next = [-1] * (2 * n0)
    seen = [0] * n_atoms

    # order position of each atom (its first one); atoms outside order sit
    # past its end and never lower the pointer
    n_order = len(order)
    opos = [n_order] * n_atoms
    for i in range(n_order - 1, -1, -1):
        opos[order[i]] = i
    optr = 0

    # install watches (literal code 2*atom, +1 when negative); queue unit
    # clauses, fail on empty ones
    for ci in range(n0):
        s = starts[ci]
        size = starts[ci + 1] - s
        if size >= 2:
            lit = lits[s]
            code = 2 * lit - 2 if lit > 0 else -2 * lit - 1
            node = 2 * ci
            watch_next[node] = watch_head[code]
            watch_head[code] = node
            lit = lits[s + 1]
            code = 2 * lit - 2 if lit > 0 else -2 * lit - 1
            node += 1
            watch_next[node] = watch_head[code]
            watch_head[code] = node
        elif size == 1:
            lit = lits[s]
            a = lit - 1 if lit > 0 else -lit - 1
            want = 1 if lit > 0 else 0
            if val[a] == -1:
                val[a] = want
                level[a] = 0
                reason[a] = ci
                trail[trail_len] = a
                trail_len += 1
            elif val[a] != want:
                return 0, val
        else:
            return 0, val

    while True:
        # propagate to fixpoint
        confl = -1
        while qhead < trail_len and confl < 0:
            a = trail[qhead]
            qhead += 1
            fcode = 2 * a + val[a]  # code of the literal this falsifies
            node = watch_head[fcode]
            prev = -1
            while node != -1:
                nxt = watch_next[node]
                ci = node >> 1
                slot = node & 1
                my_pos = starts[ci] + slot
                other_pos = starts[ci] + (1 - slot)
                other = lits[other_pos]
                if other > 0:
                    ob, owant = other - 1, 1
                else:
                    ob, owant = -other - 1, 0
                if val[ob] == owant:
                    prev = node
                    node = nxt
                    continue
                moved = False
                for k in range(starts[ci] + 2, starts[ci + 1]):
                    lk = lits[k]
                    if lk > 0:
                        kb, kwant = lk - 1, 1
                    else:
                        kb, kwant = -lk - 1, 0
                    if val[kb] == -1 or val[kb] == kwant:
                        lits[my_pos] = lk
                        lits[k] = -(a + 1) if val[a] == 1 else (a + 1)
                        # relink this watch node onto the new literal
                        if prev == -1:
                            watch_head[fcode] = nxt
                        else:
                            watch_next[prev] = nxt
                        code = 2 * kb + (0 if kwant == 1 else 1)
                        watch_next[node] = watch_head[code]
                        watch_head[code] = node
                        moved = True
                        break
                if moved:
                    node = nxt
                    continue
                if val[ob] == -1:
                    val[ob] = owant
                    level[ob] = cur_level
                    reason[ob] = ci
                    trail[trail_len] = ob
                    trail_len += 1
                else:
                    confl = ci
                prev = node
                node = nxt
                if confl >= 0:
                    break

        if confl >= 0:
            if cur_level == 0:
                return 0, val
            # first-UIP conflict analysis
            learnt = []
            count = 0
            btlevel = 0
            p_atom = -1
            ci = confl
            idx = trail_len - 1
            while True:
                for k in range(starts[ci], starts[ci + 1]):
                    lit = lits[k]
                    b = lit - 1 if lit > 0 else -lit - 1
                    if b == p_atom or seen[b] == 1 or level[b] == 0:
                        continue
                    seen[b] = 1
                    if level[b] >= cur_level:
                        count += 1
                    else:
                        learnt.append(lit)
                        if level[b] > btlevel:
                            btlevel = level[b]
                while seen[trail[idx]] == 0:
                    idx -= 1
                b = trail[idx]
                idx -= 1
                seen[b] = 0
                count -= 1
                if count == 0:
                    p_atom = b
                    break
                ci = reason[b]
                p_atom = b
            uip_lit = -(p_atom + 1) if val[p_atom] == 1 else (p_atom + 1)
            for lb in learnt:
                seen[lb - 1 if lb > 0 else -lb - 1] = 0

            # pop back to the backjump level
            keep = lev_start[btlevel + 1]
            for i in range(keep, trail_len):
                b = trail[i]
                val[b] = -1
                if opos[b] < optr:
                    optr = opos[b]
            trail_len = keep
            qhead = keep
            cur_level = btlevel

            # store the learned clause (asserting literal first, then a
            # literal of the backjump level for the second watch)
            if len(learnt) > 1:
                for i, lb in enumerate(learnt):
                    if level[lb - 1 if lb > 0 else -lb - 1] == btlevel:
                        learnt[0], learnt[i] = lb, learnt[0]
                        break
            ci = len(starts) - 1
            lits.append(uip_lit)
            lits.extend(learnt)
            starts.append(len(lits))
            watch_next += (-1, -1)
            if learnt:
                for slot in range(2):
                    lit = lits[starts[ci] + slot]
                    code = 2 * lit - 2 if lit > 0 else -2 * lit - 1
                    node = 2 * ci + slot
                    watch_next[node] = watch_head[code]
                    watch_head[code] = node
            b = p_atom
            val[b] = 1 if uip_lit > 0 else 0
            level[b] = cur_level
            reason[b] = ci
            trail[trail_len] = b
            trail_len += 1
            continue

        # decide the next unassigned atom in order, value 0 first
        while optr < n_order and val[order[optr]] != -1:
            optr += 1
        if optr == n_order:
            return 1, val
        nxt = order[optr]
        cur_level += 1
        lev_start[cur_level] = trail_len
        val[nxt] = 0
        level[nxt] = cur_level
        reason[nxt] = -1
        trail[trail_len] = nxt
        trail_len += 1


def horn_index(n_atoms, lits, starts):
    """Counter index of a Horn CNF for :func:`horn_forward`.

    Literals are DIMACS-style ±(atom+1), distinct within a clause.  Returns
    ``(heads, counts, occ, facts)``: clause ``c`` fires ``heads[c]`` (-1 for
    falsum) once all ``counts[c]`` atoms of its body are true, ``occ[a]``
    lists the clauses whose body holds atom ``a``, and ``facts`` the heads
    of the clauses with an empty body.  A tautological clause (its head also
    in its body) fires only once its head is true, so it changes nothing.
    Raises ValueError on a clause with two positive literals.
    """
    n_clauses = len(starts) - 1
    heads = [-1] * n_clauses
    counts = [0] * n_clauses
    occ = [[] for _ in range(n_atoms)]
    facts = []
    for ci in range(n_clauses):
        head = -1
        body = 0
        for lit in lits[starts[ci]:starts[ci + 1]]:
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
    Returns 0 once falsum fires; otherwise 1, and ``values`` is then the
    minimal model of the clauses, the earlier facts and ``facts``.
    """
    queue = []
    for a in facts:
        if a < 0:
            return 0
        if not values[a]:
            values[a] = 1
            queue.append(a)
    while queue:
        for ci in occ[queue.pop()]:
            left = counts[ci] - 1
            counts[ci] = left
            if left == 0:
                head = heads[ci]
                if head < 0:
                    return 0
                if not values[head]:
                    values[head] = 1
                    queue.append(head)
    return 1


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


def _split(lits, starts, high, cols, full):
    """Per clause ``(pos, neg, table)`` for a scan split at atom ``high``.

    Atoms below ``high`` are prefix bits, atom ``a`` at bit ``high-1-a``:
    ``pos`` and ``neg`` hold the bits whose value 1, or 0, satisfies the
    clause.  Every other atom ``a`` is the truth-table column
    ``cols[a - high]``, and ``table`` is the OR of those literals' columns
    (complemented within ``full`` for negative ones).
    """
    clauses = []
    for ci in range(len(starts) - 1):
        pos = neg = table = 0
        for lit in lits[starts[ci]:starts[ci + 1]]:
            a = abs(lit) - 1
            if a < high:
                if lit > 0:
                    pos |= 1 << (high - 1 - a)
                else:
                    neg |= 1 << (high - 1 - a)
            else:
                col = cols[a - high]
                table |= col if lit > 0 else full ^ col
        clauses.append((pos, neg, table))
    return clauses


def brute_scan(n_atoms, lits, starts):
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
    clauses = _split(lits, starts, high, _columns(low), full)
    for prefix in range(1 << high):
        ok = full
        for pos, neg, table in clauses:
            if prefix & pos or ~prefix & neg:
                continue
            ok &= table
            if not ok:
                break
        if ok:
            return 1, (prefix << low) | _lowest(ok)
    return 0, 0


def star_scan(n_vars, lits, starts, psi_mask):
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
    """
    cols = _columns(n_vars)
    full = (1 << (1 << n_vars)) - 1
    clauses = _split(lits, starts, n_vars, cols, full)
    psi = full
    for i in range(n_vars):
        if (psi_mask >> (n_vars - 1 - i)) & 1:
            psi &= cols[i]
    for g in range(1 << n_vars):
        member = full
        for i in range(n_vars):
            if (g >> (n_vars - 1 - i)) & 1:
                member &= cols[i]
        for pos, neg, table in clauses:
            if g & pos or ~g & neg:
                continue
            member &= table
            if not member:
                break
        if not member & psi:
            continue
        wit = [-1] * n_vars
        for i in range(n_vars):
            if (g >> (n_vars - 1 - i)) & 1:
                continue
            cand = member & ~cols[i]
            if not cand:
                break
            wit[i] = _lowest(cand)
        else:
            return 1, g, _lowest(member & psi), wit
    return 0, 0, 0, [-1] * n_vars
