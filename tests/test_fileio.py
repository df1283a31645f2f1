import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from ltlbd.fileio import (ParseError, format_dimacs_col, format_model_table,
                          format_snf, parse_dimacs_col, parse_model_table,
                          parse_snf)
from ltlbd.formula import TEMPORAL_MODS, Clause, Lit, Mod, SnfFormula
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
