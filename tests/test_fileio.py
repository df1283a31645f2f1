import random
import re
import string
import time

import pytest
from hypothesis import given, settings, strategies as st

from ltlbd.fileio import (_OP_TOKEN, ParseError, format_dimacs_col,
                          format_model_table, format_snf, parse_dimacs_col,
                          parse_model_table, parse_snf)
from ltlbd.formula import (TEMPORAL_MODS, VAR_NAME, VAR_NAME_RE, Clause, Lit,
                           Mod, SnfFormula)
from ltlbd.gen import planted_instance, random_formula
from ltlbd.interp import FiniteWindowInterpretation
from ltlbd.reductions import Graph, threecol_to_fp_horn, threecol_to_star_krom


class TestSnfFormat:
    def test_basic_parse(self):
        phi = parse_snf("""
            # a comment
            operators: F P *
            init: s
            clause: ~x | [F]y | [*]z
            clause:
        """)
        assert phi.operators == {Mod.FUT, Mod.PAST, Mod.STAR}
        assert phi.initial == ("s",)
        assert phi.clauses[0] == Clause([Lit("x", positive=False),
                                         Lit("y", Mod.FUT),
                                         Lit("z", Mod.STAR)])
        assert phi.clauses[1] == Clause([])

    def test_empty_operator_set(self):
        phi = parse_snf("operators:\nclause: x | ~y\n")
        assert phi.operators == frozenset()

    def test_parse_errors_carry_positions(self):
        with pytest.raises(ParseError) as err:
            parse_snf("operators: *\nclause: x | ]bad\n")
        assert err.value.line == 2 and err.value.col == 13
        # the bad token also occurs earlier on the line; an empty literal
        # points at the separator before it
        for text, line, col in (
                ("operators: * o", 1, 14), ("operators: rat", 1, 12),
                ("operators: *\nclause: [F]x | [F]", 2, 16),
                ("operators: *\nclause: a | b | ", 2, 15),
                ("operators: *\nclause: | a", 2, 9),
                ("operators: *\ninit: t:", 2, 7)):
            with pytest.raises(ParseError) as err:
                parse_snf(text + "\n")
            assert (err.value.line, err.value.col) == (line, col), text
        with pytest.raises(ParseError) as err:
            parse_snf("operators: Q\n")
        assert err.value.line == 1
        with pytest.raises(ParseError):
            parse_snf("")
        with pytest.raises(ParseError):
            parse_snf("clause: x\n")  # operators line must come first
        with pytest.raises(ParseError):
            parse_snf("operators: *\nwhatever: x\n")

    def test_round_trip_random_formulas(self):
        rng = random.Random(40)
        for _ in range(100):
            phi = random_formula(rng, rng.randint(1, 5), rng.randint(1, 6), 4,
                                 rng.choice([{Mod.STAR}, {Mod.FUT, Mod.PAST},
                                             {Mod.PAST, Mod.FUT, Mod.STAR}]))
            text = format_snf(phi)
            again = parse_snf(text)
            assert again == phi
            assert format_snf(again) == text

    def test_round_trip_planted_and_reduced(self):
        phi, _ = planted_instance(5, 6, 8, "horn", 2, {Mod.STAR})
        assert parse_snf(format_snf(phi)) == phi
        for build in (threecol_to_star_krom, threecol_to_fp_horn):
            red, _ = build(Graph(3, frozenset({(1, 2), (2, 3)})))
            assert parse_snf(format_snf(red)) == red


# every name VAR_NAME_RE accepts: a letter, then letters, digits or "_"
NAMES = st.builds(str.__add__, st.sampled_from(string.ascii_letters),
                  st.text(string.ascii_letters + string.digits + "_",
                          max_size=3))


@st.composite
def formulas(draw):
    """Any operator set, initial facts, and up to 6 clauses (the empty one
    included) of literals under any modality over 1-5 variables."""
    names = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    lit = st.builds(Lit, st.sampled_from(names), st.sampled_from(list(Mod)),
                    st.booleans())
    clauses = draw(st.lists(st.lists(lit, max_size=4).map(Clause),
                            max_size=6))
    initial = draw(st.lists(st.sampled_from(names), unique=True))
    ops = draw(st.frozensets(st.sampled_from(TEMPORAL_MODS)))
    return SnfFormula(ops, tuple(initial), tuple(clauses))


@st.composite
def interpretations(draw):
    """1-4 variables, a window of 1-4 worlds placed anywhere near 0, and a
    start world inside it."""
    names = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    row = st.fixed_dictionaries({v: st.booleans() for v in names})
    window = draw(st.lists(row, min_size=1, max_size=4))
    lo = draw(st.integers(-3, 3))
    start = draw(st.integers(lo, lo + len(window) - 1))
    return FiniteWindowInterpretation(draw(row), tuple(window), lo,
                                      draw(row), start)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(formulas(), interpretations())
def test_text_formats_round_trip(phi, m):
    text = format_snf(phi)
    assert parse_snf(text) == phi
    assert format_snf(parse_snf(text)) == text
    assert parse_model_table(format_model_table(m)) == m


def snf_fields(phi):
    """Every field of a formula, ``variables`` included (it does not take
    part in ``==``), with each clause's literal tuple and the reprs of the
    members, so that a ``Mod`` and an equal int tell apart."""
    return (sorted(map(repr, phi.operators)), phi.initial, phi.variables,
            [repr(c.literals) for c in phi.clauses])


def slow_copy(phi):
    """``phi`` rebuilt through ``SnfFormula.__post_init__``."""
    return SnfFormula(frozenset(phi.operators), phi.initial,
                      tuple(Clause(c.literals) for c in phi.clauses))


_OLD_LIT_RE = re.compile(rf"(~)?(\[[FP*]\])?({VAR_NAME})\Z")
_OLD_TAG_MOD = {"[F]": Mod.FUT, "[P]": Mod.PAST, "[*]": Mod.STAR}


def _old_piece_col(start, pieces, i):
    at = start + sum(len(p) + 1 for p in pieces[:i])
    piece = pieces[i]
    if piece.strip():
        return at + len(piece) - len(piece.lstrip()) + 1
    return at if i else at + len(piece) + 1


def old_parse_snf(text):
    """The formula parser as it was before the lean one: a regex match per
    literal token and the formula built through ``SnfFormula(...)``."""
    operators = None
    initial, clauses = [], []
    saw_any = False
    for ln, raw in enumerate(text.splitlines(), 1):
        cut = raw.find("#")
        line = raw if cut < 0 else raw[:cut]
        if not line.strip():
            continue
        saw_any = True
        key, sep, body = line.partition(":")
        if not sep:
            raise ParseError("expected 'directive: ...'", ln, 1)
        start = len(key) + 1
        key = key.strip()
        if key == "operators":
            if operators is not None:
                raise ParseError("duplicate operators line", ln)
            operators = set()
            for m in re.finditer(r"\S+", body):
                tok = m.group()
                if tok not in _OP_TOKEN:
                    raise ParseError(f"unknown operator token {tok!r}", ln,
                                     start + m.start() + 1)
                operators.add(_OP_TOKEN[tok])
        elif key == "init":
            if operators is None:
                raise ParseError("operators line must come first", ln)
            pieces = body.split(",")
            for i, piece in enumerate(pieces):
                name = piece.strip()
                if not VAR_NAME_RE.match(name):
                    raise ParseError(f"invalid variable name {name!r}", ln,
                                     _old_piece_col(start, pieces, i))
                initial.append(name)
        elif key == "clause":
            if operators is None:
                raise ParseError("operators line must come first", ln)
            lits = []
            if body.strip():
                pieces = body.split("|")
                for i, piece in enumerate(pieces):
                    tok = piece.strip()
                    m = _OLD_LIT_RE.match(tok)
                    if not m:
                        raise ParseError(f"malformed literal {tok!r}", ln,
                                         _old_piece_col(start, pieces, i))
                    neg, tag, name = m.groups()
                    lits.append(Lit(name, _OLD_TAG_MOD.get(tag, Mod.NONE),
                                    neg is None))
            clauses.append(Clause(lits))
        else:
            raise ParseError(f"unknown directive {key!r}", ln, 1)
    if operators is None:
        raise ParseError("empty input: missing operators line",
                         1 if not saw_any else ln)
    return SnfFormula(frozenset(operators), tuple(initial), tuple(clauses))


def outcome(parse, text):
    """The fields of the parsed formula, or the error's message and place."""
    try:
        return snf_fields(parse(text))
    except ParseError as err:
        return str(err), err.line, err.col


# spacing, tabs, comments, repeated tokens and a variable that occurs only
# as an initial fact
NOISY_TEXTS = [
    "operators: F P *\ninit: s, a\nclause: ~x | [F]y | [*]z\nclause:\n",
    "  operators :\t*  F # header\n\n# a comment line\n"
    "init:\tb ,a,  b\nclause : x|x | ~x|\t[*]x # repeated\n"
    "clause:~[*]x|x\nclause:   \t\n\tclause: y | ~y | y\n",
    "operators: P\ninit: only_init\nclause: [P]q1 | ~[P]q1 | q_2 | q1\n"
    "clause: q_2 | [P]q1\n",
    "operators:\n# no clauses\ninit: z, y\n",
    "# leading comment\r\noperators: *\r\nclause: a | ~b\r\n\r\n",
]


class TestLeanParser:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(formulas())
    def test_formulas_equal_the_slow_build(self, phi):
        assert snf_fields(parse_snf(format_snf(phi))) == snf_fields(phi)

    def test_generated_texts_equal_the_slow_build(self):
        rng = random.Random(18)
        built = [random_formula(rng, rng.randint(1, 8), rng.randint(1, 12), 5,
                                rng.choice([set(), {Mod.STAR},
                                            {Mod.FUT, Mod.PAST},
                                            set(TEMPORAL_MODS)]))
                 for _ in range(60)]
        built += [planted_instance(seed, 40, 80, target, 3, TEMPORAL_MODS)[0]
                  for seed in range(3) for target in ("horn", "krom")]
        for phi in built:
            parsed = parse_snf(format_snf(phi))
            assert snf_fields(parsed) == snf_fields(phi)
            assert snf_fields(parsed) == snf_fields(slow_copy(parsed))

    def test_noisy_texts_equal_the_old_parser(self):
        for text in NOISY_TEXTS:
            parsed = parse_snf(text)
            assert snf_fields(parsed) == snf_fields(old_parse_snf(text))
            assert snf_fields(parsed) == snf_fields(slow_copy(parsed))
        phi = parse_snf(NOISY_TEXTS[2])
        assert phi.variables == ("only_init", "q1", "q_2")
        # a repeated token is read once and its literal shared
        first, second = parse_snf(NOISY_TEXTS[1]).clauses[:2]
        assert first.literals[1] == Lit("x")
        assert first.literals[1] is second.literals[1]

    def test_malformed_lines_raise_as_the_old_parser(self):
        head = "operators: F *\n"
        lines = [
            "", "# only a comment", "\n \n# a comment\n\t\n", "clause: x",
            "init: a", "whatever",
            "operators: Q", "operators: * o", "operators: F F *x",
            head + "operators: *", head + "whatever: x", head + "no colon",
            head + ": x", head + "init: a,", head + "init: a, 1b",
            head + "init:", head + "init: t:", head + "init: a b",
            head + "clause: x | ]bad", head + "clause: [F]x | [F]",
            head + "clause: a | b | ", head + "clause: | a",
            head + "clause: ||", head + "clause: x |  | y",
            head + "clause: x || y", head + "clause: ~ x",
            head + "clause: [f]x", head + "clause: [F][P]x",
            head + "clause: ~~x", head + "clause: [F]~x", head + "clause: x y",
            head + "clause: 1x", head + "clause: x-y", head + "clause: x:y",
            head + "clause: x\t|\t~ y # c", head + "clause: é",
            head + "clause: a | b\nclause: a | [Q]b",
            head + "clause: a\nclause: a | ~a | a?",
            head + "clause: x # | ]bad\nclause: x |  ]bad",
            "\n\n" + head + "clause: x\n  \t\nclause: ~",
        ]
        for text in lines:
            want = outcome(old_parse_snf, text)
            assert len(want) == 3, text  # every line of the corpus is bad
            assert outcome(parse_snf, text) == want, text

    def test_mutated_texts_behave_as_with_the_old_parser(self):
        # random edits of valid texts: where the old parser reads a formula,
        # the fields are equal; where it raises, the error is
        rng = random.Random(7)
        alphabet = " \t\r\n|,:#~[]FP*xy1_é"
        seeds = NOISY_TEXTS + [format_snf(random_formula(
            rng, 4, 5, 4, {Mod.STAR, Mod.FUT})) for _ in range(20)]
        errors = 0
        for _ in range(3000):
            text = list(rng.choice(seeds))
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(text) + 1)
                if text and rng.random() < 0.5:
                    del text[min(at, len(text) - 1)]
                else:
                    text.insert(at, rng.choice(alphabet))
            text = "".join(text)
            want = outcome(old_parse_snf, text)
            errors += len(want) == 3
            assert outcome(parse_snf, text) == want, text
        assert 300 < errors < 2700


class TestLineBreaks:
    # every character str.splitlines() breaks at besides \n and \r
    OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

    def test_other_line_break_characters_are_refused(self):
        assert len("".join(ch + "a" for ch in self.OTHER_BREAKS)
                   .splitlines()) == 9
        for ch in self.OTHER_BREAKS:
            cases = [
                (parse_snf, f"operators: *\nclause: x{ch}clause: y\n", 2, 10),
                (parse_snf, f"# note{ch}\noperators: *\n", 1, 7),
                (parse_snf, f"operators: *\nclause: x\n{ch}", 3, 1),
                (parse_model_table,
                 f"vars: x\nleft: 0{ch}\nworld 0: 1\nright: 0\n", 2, 8),
                (parse_dimacs_col, f"p edge 2 1\ne 1 2{ch}e 2 1\n", 2, 6),
            ]
            for parse, text, line, col in cases:
                with pytest.raises(ParseError, match="line break") as err:
                    parse(text)
                assert (err.value.line, err.value.col) == (line, col), (
                    parse, text)

    def test_cr_lf_and_cr_break_lines_as_before(self):
        snf = NOISY_TEXTS[1] + "init: x\n"
        table = "vars: x y\nstart: 1\nleft: 0 1\nworld 1: 1 1\nright: 1 0\n"
        col = "c demo\np edge 3 2\ne 1 2\ne 3 2\n"
        for newline in ("\r\n", "\r"):
            assert (snf_fields(parse_snf(snf.replace("\n", newline)))
                    == snf_fields(parse_snf(snf)))
            assert (snf_fields(parse_snf(snf.replace("\n", newline)))
                    == snf_fields(old_parse_snf(snf.replace("\n", newline))))
            assert (parse_model_table(table.replace("\n", newline))
                    == parse_model_table(table))
            assert (parse_dimacs_col(col.replace("\n", newline))
                    == parse_dimacs_col(col))
        with pytest.raises(ParseError) as err:
            parse_snf("operators: *\r\n\r\nclause: ]\r\n")
        assert (err.value.line, err.value.col) == (3, 9)



class TestModelTable:
    def roundtrip(self, m):
        return parse_model_table(format_model_table(m))

    def test_round_trip(self):
        m = FiniteWindowInterpretation(
            left={"a": True, "b": False},
            window=({"a": True, "b": True}, {"a": False, "b": False}),
            lo=1, right={"a": False, "b": True}, start=2)
        again = self.roundtrip(m)
        assert again == m

    def test_round_trip_without_variables(self):
        # a formula without variables gets a table of empty rows
        m = FiniteWindowInterpretation(left={}, window=({},), lo=0, right={},
                                       start=0)
        text = format_model_table(m)
        assert text.splitlines()[0].rstrip() == "vars:"
        assert self.roundtrip(m) == m

    def test_default_start(self):
        text = "vars: x\nleft: 0\nworld 0: 1\nright: 0\n"
        assert parse_model_table(text).start == 0
        text = "vars: x\nleft: 0\nworld 2: 1\nworld 3: 1\nright: 0\n"
        assert parse_model_table(text).start == 2

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_model_table("vars: x\nleft: 0\nright: 0\n")  # no worlds
        with pytest.raises(ParseError):
            parse_model_table(
                "vars: x\nleft: 0\nworld 0: 1\nworld 2: 1\nright: 0\n")
        with pytest.raises(ParseError):
            parse_model_table("vars: x\nleft: 0 1\nworld 0: 1\nright: 0\n")
        with pytest.raises(ParseError):
            parse_model_table("vars: x\nleft: 2\nworld 0: 1\nright: 0\n")
        with pytest.raises(ParseError, match="distinct names"):
            parse_model_table("vars: x x\nleft: 0 0\nworld 0: 1 1\n"
                              "right: 0 0\n")

    @pytest.mark.parametrize("text,message", [
        ("vars: x\nleft 0\n", "expected 'row: ...' (line 2, col 1)"),
        ("vars: x\nvars: x\n", "duplicate vars line (line 2)"),
        ("left: 0\nvars: x\n", "vars line must come first (line 1)"),
        ("vars: x\nworld 1: 0\nworld 1: 1\n", "duplicate world 1 (line 3)"),
        ("vars: x\nmiddle: 0\n", "unknown row 'middle' (line 2, col 1)"),
        ("vars: x\nstart: one\n",
         "expected an integer, got 'one' (line 2)"),
        ("vars: x\nworld one: 0\n",
         "expected an integer, got 'one' (line 2)"),
    ], ids=["no-colon", "second-vars", "row-before-vars", "repeated-world",
            "unknown-row", "start-not-integer", "world-not-integer"])
    def test_malformed_line_is_refused(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_model_table(text)
        assert str(err.value) == message

    def test_distant_worlds_are_refused_at_once(self):
        # the contiguity check counts the worlds: it builds nothing over the
        # span between them, which here is 10^12 worlds wide
        text = ("vars: x\nleft: 0\nworld 0: 1\nworld 1000000000000: 1\n"
                "right: 0\n")
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match="window worlds must be contiguous"):
            parse_model_table(text)
        assert time.perf_counter() - t0 < 1.0

    def test_repeated_rows_are_rejected(self):
        rows = ["vars: x", "start: 0", "left: 0", "world 0: 1", "right: 1"]
        for i in (1, 2, 4):
            lines = rows[:i + 1] + rows[i:]
            with pytest.raises(ParseError, match="duplicate") as err:
                parse_model_table("\n".join(lines) + "\n")
            assert err.value.line == i + 2


class TestDimacsCol:
    def test_parse(self):
        g = parse_dimacs_col("c demo\np edge 4 2\ne 1 2\ne 4 3\n")
        assert g.n == 4 and g.sorted_edges() == [(1, 2), (3, 4)]

    def test_round_trip(self):
        g = Graph(5, frozenset({(1, 5), (2, 3)}))
        assert parse_dimacs_col(format_dimacs_col(g)) == g

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_dimacs_col("e 1 2\n")
        with pytest.raises(ParseError):
            parse_dimacs_col("p edge 3 1\ne 1 1\n")
        with pytest.raises(ParseError):
            parse_dimacs_col("p edge 3 1\ne 1 9\n")
        with pytest.raises(ParseError):
            parse_dimacs_col("p graph 3 1\n")

    @pytest.mark.parametrize("text,message", [
        ("p edge 3 0\np edge 3 0\n", "duplicate problem line (line 2)"),
        ("p edge 3 1\ne 1\n", "malformed edge line 'e 1' (line 2)"),
        ("p edge 3 1\ne 1 two\n", "expected an integer, got 'two' (line 2)"),
        ("p edge 3 1\nx 1 2\n", "unknown line 'x 1 2' (line 2, col 1)"),
        ("c no problem line\n", "missing problem line"),
        ("p edge three 0\n", "expected an integer, got 'three' (line 1)"),
        # the edge count is read, though not checked against the e lines
        ("p edge 3 x\n", "expected an integer, got 'x' (line 1)"),
        ("c\np edge 3 -5\n", "negative edge count -5 (line 2)"),
    ], ids=["second-p", "short-e", "e-not-integer", "unknown-line",
            "no-p", "n-not-integer", "m-not-integer", "m-negative"])
    def test_malformed_line_is_refused(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_dimacs_col(text)
        assert str(err.value) == message

    def test_edge_count_need_not_match_the_edges(self):
        g = parse_dimacs_col("p edge 3 5\ne 1 2\n")
        assert g.n == 3 and g.sorted_edges() == [(1, 2)]
