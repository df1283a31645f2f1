"""Text formats: formula files, model tables, and DIMACS-style graph input.

Every format is line based, with lines broken at ``\\n``, ``\\r\\n`` and
``\\r`` only.  ``#`` starts a comment in formula files and model tables.

In a formula file the header line ``operators: F P *`` declares the
operator set (any subset, space separated); an optional ``init: v1, v2`` line lists the initial facts; each
``clause: LIT | LIT | ...`` line holds one clause, where a literal is
``~``-negation, an optional ``[F]``/``[P]``/``[*]`` tag, and a name.

Model tables carry a ``vars:`` header of distinct names (empty for a formula
without variables), a ``start: K`` line naming the world
of the initial facts, a ``left:`` row, one ``world K:`` row per window world,
and a ``right:`` row, each with space-separated 0/1 cells in header order.
"""

from __future__ import annotations

import re

from .formula import (Clause, Lit, Mod, SnfFormula, VAR_NAME, VAR_NAME_RE,
                      _trusted)
from .interp import FiniteWindowInterpretation
from .reductions import Graph


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            where = f" ({where})"
        super().__init__(f"{message}{where}")


# a literal token: its sign-and-tag prefix, then its name
_LIT_RE = re.compile(rf"(~?(?:\[[FP*]\])?)({VAR_NAME})\Z")
# prefix -> (modality, positive), the tail of the token's Lit
_PREFIX = {sign + tag: (mod, not sign) for sign in ("", "~")
           for tag, mod in (("", Mod.NONE), ("[F]", Mod.FUT),
                            ("[P]", Mod.PAST), ("[*]", Mod.STAR))}
_tuple_new = tuple.__new__  # builds a Lit without its Python-level __new__
_OP_TOKEN = {"F": Mod.FUT, "P": Mod.PAST, "*": Mod.STAR}
_MOD_OP_TOKEN = {m: t for t, m in _OP_TOKEN.items()}


# characters that str.splitlines() breaks at besides \n and \r
_OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _lines(text: str) -> list[str]:
    """The lines of ``text``, broken at ``\\n``, ``\\r\\n`` and ``\\r``
    only, so that line numbers are the ones an editor shows.  A character
    that ``str.splitlines()`` would also break at raises ParseError."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if any(ch in text for ch in _OTHER_BREAKS):
        for ln, line in enumerate(lines, 1):
            for col, ch in enumerate(line, 1):
                if ch in _OTHER_BREAKS:
                    raise ParseError(f"line break character {ch!r} inside "
                                     "a line", ln, col)
    return lines


def _piece_col(line: str, pieces: list[str], i: int) -> int:
    """1-based column of ``pieces[i]``, the pieces being the body of a
    ``directive: body`` line split on a one-character separator: its first
    non-blank character, or for a blank piece the separator before it (after
    it, for the first piece)."""
    at = line.index(":") + 1 + sum(len(p) + 1 for p in pieces[:i])
    piece = pieces[i]
    if piece.strip():
        return at + len(piece) - len(piece.lstrip()) + 1
    return at if i else at + len(piece) + 1


def _int(token: str, ln: int) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise ParseError(f"expected an integer, got {token.strip()!r}", ln) from None


def parse_snf(text: str) -> SnfFormula:
    """Read a formula file.

    Each literal token is read once per call: a dict local to the call maps
    every stripped token seen so far to its ``Lit``, so a repeated token
    costs a lookup and shares the first one's ``Lit``.  A new token gets one
    anchored ``_LIT_RE`` match, whose name group admits exactly the
    ``VAR_NAME`` names.  So the formula is built without
    ``SnfFormula.__post_init__``: its universe is the names of the tokens
    plus the initial facts.  Error columns are computed only when raising.
    """
    operators = None
    initial: list[str] = []
    clauses: list[Clause] = []
    memo: dict[str, Lit] = {}
    for ln, raw in enumerate(_lines(text), 1):
        line = raw.partition("#")[0]
        key, sep, body = line.partition(":")
        if not sep:
            if not line.strip():
                continue
            raise ParseError("expected 'directive: ...'", ln, 1)
        key = key.strip()
        if key == "clause":
            if operators is None:
                raise ParseError("operators line must come first", ln)
            toks = [*map(str.strip, body.split("|"))]
            lits = [*map(memo.get, toks)]
            if None in lits:  # a blank body, or a token new to this call
                lits = [] if toks == [""] else _read_new(memo, toks, lits,
                                                          ln, line)
            clauses.append(Clause(lits))
        elif key == "operators":
            if operators is not None:
                raise ParseError("duplicate operators line", ln)
            operators = set()
            for m in re.finditer(r"\S+", body):
                tok = m.group()
                if tok not in _OP_TOKEN:
                    raise ParseError(f"unknown operator token {tok!r}", ln,
                                     line.index(":") + m.start() + 2)
                operators.add(_OP_TOKEN[tok])
        elif key == "init":
            if operators is None:
                raise ParseError("operators line must come first", ln)
            pieces = body.split(",")
            for i, piece in enumerate(pieces):
                name = piece.strip()
                if not VAR_NAME_RE.match(name):
                    raise ParseError(f"invalid variable name {name!r}", ln,
                                     _piece_col(line, pieces, i))
                initial.append(name)
        else:
            raise ParseError(f"unknown directive {key!r}", ln, 1)
    if operators is None:
        # every other non-blank line raises before the operators line
        raise ParseError("empty input: missing operators line", 1)
    names = {lit[0] for lit in memo.values()}
    names.update(initial)
    return _trusted(frozenset(operators), tuple(sorted(set(initial))),
                    tuple(clauses), tuple(sorted(names)))


def _read_new(memo: dict[str, Lit], toks: list[str], lits: list,
              ln: int, line: str) -> list[Lit]:
    """Fill the ``None`` entries of ``lits``, the memo hits of ``toks``:
    read each such token with one ``_LIT_RE`` match and add it to ``memo``.
    ``toks`` are the stripped pieces of the clause body of ``line``, line
    ``ln`` of the text."""
    for i, lit in enumerate(lits):
        if lit is None:
            tok = toks[i]
            lit = memo.get(tok)  # an earlier token of the same clause
            if lit is None:
                m = _LIT_RE.match(tok)
                if m is None:
                    pieces = line.partition(":")[2].split("|")
                    raise ParseError(f"malformed literal {tok!r}", ln,
                                     _piece_col(line, pieces, i))
                prefix, name = m.groups()
                lit = memo[tok] = _tuple_new(Lit, (name, *_PREFIX[prefix]))
            lits[i] = lit
    return lits


def format_snf(phi: SnfFormula) -> str:
    """Canonical text: operators in F P * order, initial facts sorted,
    clauses in formula order with literals already canonical."""
    ops = " ".join(_MOD_OP_TOKEN[m]
                   for m in (Mod.FUT, Mod.PAST, Mod.STAR) if m in phi.operators)
    lines = [f"operators: {ops}".rstrip()]
    if phi.initial:
        lines.append("init: " + ", ".join(phi.initial))
    for c in phi.clauses:
        body = " | ".join(str(lit) for lit in c)
        lines.append(f"clause: {body}".rstrip())
    return "\n".join(lines) + "\n"


def _bits(row: dict, order: list[str]) -> str:
    return " ".join("1" if row[v] else "0" for v in order)


def format_model_table(m: FiniteWindowInterpretation) -> str:
    order = sorted(m.left)
    lines = ["vars: " + " ".join(order), f"start: {m.start}",
             "left: " + _bits(m.left, order)]
    for i, row in enumerate(m.window):
        lines.append(f"world {m.lo + i}: " + _bits(row, order))
    lines.append("right: " + _bits(m.right, order))
    return "\n".join(lines) + "\n"


def parse_model_table(text: str) -> FiniteWindowInterpretation:
    order: list[str] | None = None
    once: dict[str, object] = {}  # the start, left and right rows
    worlds: dict[int, dict] = {}

    def parse_row(body: str, ln: int) -> dict:
        cells = body.split()
        if len(cells) != len(order):
            raise ParseError(
                f"expected {len(order)} cells, got {len(cells)}", ln)
        row = {}
        for v, cell in zip(order, cells):
            if cell not in ("0", "1"):
                raise ParseError(f"cell must be 0 or 1, got {cell!r}", ln)
            row[v] = cell == "1"
        return row

    for ln, raw in enumerate(_lines(text), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, sep, body = line.partition(":")
        if not sep:
            raise ParseError("expected 'row: ...'", ln, 1)
        key = key.strip()
        if key == "vars":
            if order is not None:
                raise ParseError("duplicate vars line", ln)
            order = body.split()
            if len(set(order)) != len(order):
                raise ParseError("vars line needs distinct names", ln)
        elif order is None:
            raise ParseError("vars line must come first", ln)
        elif key in ("start", "left", "right"):
            if key in once:
                raise ParseError(f"duplicate {key} line", ln)
            once[key] = (_int(body, ln) if key == "start"
                         else parse_row(body, ln))
        elif key.startswith("world"):
            z = _int(key[len("world"):], ln)
            if z in worlds:
                raise ParseError(f"duplicate world {z}", ln)
            worlds[z] = parse_row(body, ln)
        else:
            raise ParseError(f"unknown row {key!r}", ln, 1)

    if order is None or not worlds or not {"left", "right"} <= once.keys():
        raise ParseError("model table needs vars, left, worlds, and right")
    lo, hi = min(worlds), max(worlds)
    if hi - lo + 1 != len(worlds):  # the keys are distinct ints
        raise ParseError("window worlds must be contiguous")
    start = once.get("start", 0 if lo <= 0 <= hi else lo)
    return FiniteWindowInterpretation(
        left=once["left"], window=tuple(worlds[z] for z in range(lo, hi + 1)),
        lo=lo, right=once["right"], start=start)


def parse_dimacs_col(text: str) -> Graph:
    n = None
    edges = []
    for ln, raw in enumerate(_lines(text), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"malformed problem line {line!r}", ln)
            if n is not None:
                raise ParseError("duplicate problem line", ln)
            n = _int(parts[2], ln)
            if _int(parts[3], ln) < 0:  # else unchecked against the e lines
                raise ParseError(f"negative edge count {parts[3]}", ln)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", ln)
            if len(parts) != 3:
                raise ParseError(f"malformed edge line {line!r}", ln)
            i, j = _int(parts[1], ln), _int(parts[2], ln)
            if i == j:
                raise ParseError(f"self-loop on vertex {i}", ln)
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(f"edge ({i},{j}) outside 1..{n}", ln)
            edges.append((min(i, j), max(i, j)))
        else:
            raise ParseError(f"unknown line {line!r}", ln, 1)
    if n is None:
        raise ParseError("missing problem line")
    return Graph(n, frozenset(edges))


def format_dimacs_col(graph: Graph) -> str:
    lines = [f"p edge {graph.n} {len(graph.edges)}"]
    lines.extend(f"e {i} {j}" for i, j in graph.sorted_edges())
    return "\n".join(lines) + "\n"
