import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ltlbd
from ltlbd import cli
from ltlbd.cli import main
from ltlbd.evaluation import EVAL_BACKDOOR_LIMIT
from ltlbd.gen import GEN_SIZE_LIMIT
from ltlbd.reductions import REDUCE_VERTEX_LIMIT
from ltlbd.fileio import format_snf, parse_snf
from ltlbd.formula import Clause, Lit, Mod, SnfFormula

TRIANGLE_COL = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def snf(tmp_path, name, phi):
    return write(tmp_path, name, format_snf(phi))


def disjoint(tmp_path, count, width):
    """``count`` clauses of ``width`` positive literals, no variable shared."""
    phi = SnfFormula(frozenset({Mod.STAR}), (), tuple(
        Clause([Lit(f"v{i}_{j}") for j in range(width)])
        for i in range(count)))
    return snf(tmp_path, f"disjoint{count}x{width}.snf", phi)


@pytest.fixture
def simple(tmp_path):
    phi = SnfFormula(frozenset({Mod.STAR}), ("x",),
                     (Clause([Lit("x", Mod.STAR, False)]),))
    return snf(tmp_path, "simple.snf", phi)


class TestValidate:
    def test_valid(self, simple, capsys):
        assert main(["validate", simple]) == 0
        assert "verdict: VALID" in capsys.readouterr().out

    def test_undeclared_operator(self, tmp_path, capsys):
        path = write(tmp_path, "bad.snf", "operators: *\nclause: [F]x\n")
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out
        assert "verdict: INVALID" in out and "undeclared-operator" in out

    def test_syntax_error(self, tmp_path, capsys):
        path = write(tmp_path, "broken.snf", "")
        assert main(["validate", path]) == 2

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/nope.snf"]) == 2

    def test_lines_break_at_newlines_only(self, tmp_path, capsys):
        # a form feed splits no line: the file is one bad clause, not two
        path = write(tmp_path, "ff.snf", "operators: *\nclause: x\x0cclause: y\n")
        assert main(["validate", path]) == 2
        assert "(line 2, col 10)" in capsys.readouterr().err
        path = write(tmp_path, "crlf.snf", "operators: *\r\nclause: ~[*]x\r\n")
        assert main(["validate", path]) == 0
        assert "verdict: VALID" in capsys.readouterr().out


class TestDetect:
    def test_found(self, tmp_path, capsys):
        phi = SnfFormula(frozenset({Mod.STAR}), (),
                         (Clause([Lit("x"), Lit("y")]),))
        path = snf(tmp_path, "f.snf", phi)
        assert main(["detect", path, "--class", "horn", "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "verdict: BACKDOOR_FOUND" in out
        assert "backdoor: x" in out

    def test_none(self, tmp_path, capsys):
        phi = SnfFormula(frozenset({Mod.STAR}), (),
                         (Clause([Lit("x"), Lit("y"), Lit("z")]),))
        path = snf(tmp_path, "f.snf", phi)
        assert main(["detect", path, "--class", "krom", "-k", "0"]) == 1
        assert "verdict: NONE" in capsys.readouterr().out

    @pytest.mark.parametrize("target", ["horn", "krom"])
    def test_negative_k_is_an_input_error(self, tmp_path, capsys, target):
        phi = SnfFormula(frozenset({Mod.STAR}), (),
                         (Clause([Lit("x"), Lit("y"), Lit("z")]),))
        path = snf(tmp_path, "f.snf", phi)
        assert main(["detect", path, "--class", target, "-k", "-3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_already_in_class_empty_backdoor(self, simple, capsys):
        assert main(["detect", simple, "--class", "horn", "-k", "0"]) == 0
        assert "backdoor: \n" in capsys.readouterr().out

    @pytest.mark.parametrize("target,width", [("krom", 3), ("horn", 2)])
    def test_deep_search_finds_large_backdoor(self, tmp_path, capsys,
                                              target, width):
        path = disjoint(tmp_path, 3000, width)
        assert main(["detect", path, "--class", target, "-k", "3000"]) == 0
        out = capsys.readouterr().out
        assert "verdict: BACKDOOR_FOUND" in out
        assert "backdoor-size: 3000" in out

    @pytest.mark.parametrize("target,width", [("horn", 3), ("krom", 4)])
    def test_large_budget_none_is_quick(self, tmp_path, capsys, target,
                                        width):
        # each clause needs two backdoor variables, so 3000 clauses need
        # 6000: the search must refute k = 3000 without walking its tree
        path = disjoint(tmp_path, 3000, width)
        t0 = time.perf_counter()
        assert main(["detect", path, "--class", target, "-k", "3000"]) == 1
        assert time.perf_counter() - t0 < 1.0
        assert "verdict: NONE" in capsys.readouterr().out

    def test_disjoint_clauses_over_budget_is_none(self, tmp_path, capsys):
        path = disjoint(tmp_path, 6, 3)
        assert main(["detect", path, "--class", "krom", "-k", "5"]) == 1
        assert "verdict: NONE" in capsys.readouterr().out

    @pytest.mark.parametrize("target", ["horn", "krom"])
    def test_undeclared_operator_is_an_input_error(self, tmp_path, capsys,
                                                   target):
        # the backdoor depends on the declared operators, so a file that
        # `validate` rejects gets no answer, as with evaluate and solve
        path = write(tmp_path, "bad.snf",
                     "operators: *\ninit: x3, x4\nclause: ~[P]x4\n"
                     "clause: [*]x1 | [F]x3\n")
        assert main(["validate", path]) == 1
        capsys.readouterr()
        assert main(["detect", path, "--class", target, "-k", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_unexpected_exception_is_an_internal_error(simple, capsys,
                                                   monkeypatch):
    def broken(args):
        raise AssertionError("broken invariant")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    assert main(["validate", simple]) == 4
    err = capsys.readouterr().err
    assert err == "error: internal error: AssertionError: broken invariant\n"


class TestEvaluateAndCheckModel:
    def test_sat_writes_checkable_model(self, simple, tmp_path, capsys):
        model = str(tmp_path / "out.model")
        assert main(["evaluate", simple, "--backdoor", "",
                     "--model-out", model]) == 0
        out = capsys.readouterr().out
        assert "verdict: SAT" in out
        assert main(["check-model", simple, model]) == 0
        assert "verdict: VALID" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["evaluate", "--backdoor", ""],
        ["solve", "--oracle", "star"],
        ["solve", "--oracle", "window", "--window", "0"]])
    def test_formula_without_variables_writes_checkable_model(
            self, tmp_path, capsys, command):
        path = write(tmp_path, "none.snf", "operators: *\n")
        model = str(tmp_path / "none.model")
        assert main([command[0], path, *command[1:],
                     "--model-out", model]) == 0
        assert "verdict: SAT" in capsys.readouterr().out
        assert main(["check-model", path, model]) == 0
        assert "verdict: VALID" in capsys.readouterr().out

    def test_unsat(self, tmp_path, capsys):
        phi = SnfFormula(frozenset({Mod.STAR}), ("x",),
                         (Clause([Lit("x", positive=False)]),))
        path = snf(tmp_path, "unsat.snf", phi)
        assert main(["evaluate", path, "--backdoor", ""]) == 1
        assert "verdict: UNSAT" in capsys.readouterr().out

    def test_empty_clause_is_unsat(self, tmp_path, capsys):
        path = write(tmp_path, "empty.snf",
                     "operators: *\nclause:\nclause: b | c\n")
        assert main(["evaluate", path, "--backdoor", "b"]) == 1
        assert "verdict: UNSAT" in capsys.readouterr().out
        assert main(["solve", path, "--oracle", "star"]) == 1
        assert "verdict: UNSAT" in capsys.readouterr().out

    def test_repeated_backdoor_name_is_reported_once(self, tmp_path, capsys):
        path = write(tmp_path, "f.snf", "operators: *\ninit: c\n"
                     "clause: b | c\nclause: [*]b | ~c\n")
        model = str(tmp_path / "m.model")
        assert main(["evaluate", path, "--backdoor", "b,b",
                     "--model-out", model]) == 0
        out = capsys.readouterr().out
        assert "backdoor: b\n" in out and "backdoor-size: 1\n" in out
        assert "verdict: SAT" in out

    def test_wrong_fragment_rejected(self, tmp_path, capsys):
        phi = SnfFormula(frozenset({Mod.FUT}), (),
                         (Clause([Lit("x", Mod.FUT)]),))
        path = snf(tmp_path, "fut.snf", phi)
        assert main(["evaluate", path, "--backdoor", ""]) == 2

    def test_dump_cnf(self, simple, tmp_path, capsys):
        prefix = str(tmp_path / "dump")
        assert main(["evaluate", simple, "--backdoor", "",
                     "--model-out", str(tmp_path / "m.model"),
                     "--dump-cnf", prefix]) == 0
        assert (tmp_path / "dump.0.cnf").exists()
        assert (tmp_path / "dump.0.names").exists()
        first = (tmp_path / "dump.0.cnf").read_text().splitlines()[0]
        assert first.startswith("p cnf ")

    def test_dump_cnf_writes_every_candidate(self, tmp_path, capsys):
        # init b, x with always b and ~x | ~b, backdoor {b}: the four
        # candidates are dead (b false at the start), UNSAT, dead, and
        # UNSAT already without initial facts; all four are dumped in order
        phi = SnfFormula(frozenset({Mod.STAR}), ("b", "x"), (
            Clause([Lit("b", Mod.STAR)]),
            Clause([Lit("x", positive=False), Lit("b", positive=False)])))
        path = snf(tmp_path, "unsat.snf", phi)
        prefix = str(tmp_path / "dump")
        assert main(["evaluate", path, "--backdoor", "b",
                     "--dump-cnf", prefix]) == 1
        assert "verdict: UNSAT" in capsys.readouterr().out
        for i in range(4):
            lines = (tmp_path / f"dump.{i}.cnf").read_text().splitlines()
            tag, kind, n_atoms, n_clauses = lines[0].split()
            assert (tag, kind) == ("p", "cnf")
            assert len(lines) == 1 + int(n_clauses)
            for line in lines[1:]:
                nums = [int(x) for x in line.split()]
                assert nums[-1] == 0
                assert all(1 <= abs(x) <= int(n_atoms) for x in nums[:-1])
            assert (tmp_path / f"dump.{i}.names").exists()
        assert not (tmp_path / "dump.4.cnf").exists()
        for dead in (0, 2):
            assert "0" in (tmp_path / f"dump.{dead}.cnf").read_text().splitlines()

    def test_dump_cnf_golden(self, tmp_path, capsys):
        # backdoor {b}, non-backdoor x and y: candidate 0 and 2 are dead
        # (init b), candidate 1's block is FALSE (~[*]b), and 3 carries the
        # unit of init x; the text pins the clause order of every dump
        path = write(tmp_path, "golden.snf",
                     "operators: *\ninit: b, x\nclause: ~[*]b\n"
                     "clause: ~x | y | b\nclause: x | ~y | ~b\n"
                     "clause: [*]y | ~x\n")
        prefix = str(tmp_path / "dump")
        assert main(["evaluate", path, "--backdoor", "b", "--dump-cnf",
                     prefix, "--model-out", str(tmp_path / "m.model")]) == 0
        assert "verdict: SAT" in capsys.readouterr().out
        got = ""
        for i in range(4):
            for ext in ("cnf", "names"):
                got += f"== dump.{i}.{ext}\n"
                got += (tmp_path / f"dump.{i}.{ext}").read_text()
        assert not (tmp_path / "dump.4.cnf").exists()
        golden = Path(__file__).parent / "data" / "golden_dump.txt"
        assert got == golden.read_text()

    def test_dump_cnf_admits_the_formula_once(self, tmp_path, capsys,
                                              monkeypatch):
        # the dumps are written through evaluate_horn_star's on_candidate
        # replay, so the backdoor is verified once, exactly the tried
        # candidates are dumped, and a refused backdoor dumps nothing
        calls = []
        real = ltlbd.evaluation.verify_backdoor

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ltlbd.evaluation, "verify_backdoor", counted)
        text = ("operators: *\ninit: b, x\nclause: ~[*]b\n"
                "clause: ~x | y | b\nclause: x | ~y | ~b\n")
        path = write(tmp_path, "f.snf", text)
        tried = ltlbd.evaluate_horn_star(parse_snf(text), ("b",)).tried
        assert tried == 4
        for backdoor, code, n_dumps in (("b", 0, tried), ("", 3, 0)):
            calls.clear()
            prefix = tmp_path / f"exit{code}" / "dump"
            prefix.parent.mkdir(exist_ok=True)
            assert main(["evaluate", path, "--backdoor", backdoor,
                         "--dump-cnf", str(prefix), "--model-out",
                         str(tmp_path / "m.model")]) == code
            assert len(calls) == 1
            assert sorted(p.name for p in prefix.parent.iterdir()) == sorted(
                f"dump.{i}.{ext}" for i in range(n_dumps)
                for ext in ("cnf", "names"))
        capsys.readouterr()

    def test_future_literal_on_a_backdoor_variable(self, tmp_path, capsys):
        # an undeclared [F] on a backdoor variable: an input error, not a
        # lookup failure that would exit 4
        path = write(tmp_path, "f.snf", "operators: *\n"
                     "clause: [F]b | ~x\nclause: x | b\n")
        assert main(["evaluate", path, "--backdoor", "b"]) == 2
        assert capsys.readouterr().err == (
            "error: a clause uses an operator the formula does not declare\n")

    def test_undeclared_operator_is_an_input_error(self, tmp_path, capsys):
        # the reduct by b drops [F]x, so the library alone would answer SAT;
        # the file is one `validate` rejects, so evaluate says what detect says
        path = write(tmp_path, "f.snf", "operators: *\ninit: b\n"
                     "clause: [F]x | b\nclause: y | ~x\n")
        assert main(["validate", path]) == 1
        capsys.readouterr()
        assert main(["detect", path, "--class", "horn", "-k", "1"]) == 2
        detect_err = capsys.readouterr().err
        assert main(["evaluate", path, "--backdoor", "b",
                     "--model-out", str(tmp_path / "m.model")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == detect_err
        assert detect_err.startswith("error:")
        assert not (tmp_path / "m.model").exists()

    def test_backdoor_over_the_limit_is_an_input_error(self, tmp_path,
                                                       capsys):
        # five variables would mean 2^32 - 1 member sets
        path = write(tmp_path, "f.snf", "operators: *\n"
                     "clause: a | b | c | d | e\nclause: ~a | x\n")
        t0 = time.perf_counter()
        assert main(["evaluate", path, "--backdoor", "a,b,c,d,e"]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"limited to {EVAL_BACKDOOR_LIMIT} backdoor variables" in err

    @pytest.mark.parametrize("backdoor,name", [
        ("x y", "x y"), ("x,~y", "~y"), (" x , [*]y", "[*]y")])
    def test_invalid_backdoor_name_is_an_input_error(self, tmp_path, capsys,
                                                     backdoor, name):
        # a piece that is no variable name is refused as on an init: line,
        # before the library looks for it among the formula's variables
        path = write(tmp_path, "f.snf", "operators: *\nclause: x | y\n")
        model = tmp_path / "m.model"
        assert main(["evaluate", path, "--backdoor", backdoor,
                     "--model-out", str(model)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid variable name {name!r}\n"
        assert not model.exists()

    @pytest.mark.parametrize("text,backdoor,err", [
        ("operators: *\nclause: a | b\n", "nosuch",
         "supplied set names variables the formula lacks: nosuch"),
        # every unknown name is listed, sorted, once its spaces are stripped
        ("operators: *\nclause: a | b\n", "a, w, v",
         "supplied set names variables the formula lacks: v, w"),
        ("operators: *\nclause: x | y\n", "",
         "supplied set is not a strong Horn backdoor"),
        # five names, one over the limit, yet the set fails first: f | g
        ("operators: *\nclause: a | b | c | d | e | f | g\n", "a,b,c,d,e",
         "supplied set is not a strong Horn backdoor"),
    ], ids=["unknown-name", "unknown-names", "empty-set",
            "five-variable-non-backdoor"])
    def test_non_backdoor_is_a_contract_violation(self, tmp_path, capsys,
                                                  text, backdoor, err):
        path = write(tmp_path, "f.snf", text)
        model = tmp_path / "m.model"
        prefix = str(tmp_path / "dump")
        assert main(["evaluate", path, "--backdoor", backdoor,
                     "--model-out", str(model), "--dump-cnf", prefix]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"
        assert not model.exists()
        assert not list(tmp_path.glob("dump*"))

    def test_backdoor_names_are_stripped_like_init_names(self, tmp_path,
                                                         capsys):
        # {x, y} is a Horn backdoor of x | y | c; spaces around a name are
        # dropped as on an init: line, so the report and model are the same
        path = write(tmp_path, "f.snf", "operators: *\ninit: c\n"
                     "clause: x | y | c\nclause: [*]x | ~c\n")
        seen = []
        for i, backdoor in enumerate(("x,y", "x, y", " y ,x, ")):
            model = tmp_path / f"m{i}.model"
            assert main(["evaluate", path, "--backdoor", backdoor,
                         "--model-out", str(model)]) == 0
            out = capsys.readouterr().out
            report = [line for line in out.splitlines()
                      if not line.startswith(("time:", "certificate:"))]
            seen.append((report, model.read_text()))
        assert "backdoor: x,y" in seen[0][0] and "verdict: SAT" in seen[0][0]
        assert seen[1] == seen[0]
        # the names are kept in the order given
        assert seen[2][0] == [line.replace("x,y", "y,x")
                              for line in seen[0][0]]
        assert seen[2][1] == seen[0][1]

    def test_corrupted_model_cell_invalid(self, simple, tmp_path, capsys):
        model = tmp_path / "m.model"
        assert main(["evaluate", simple, "--backdoor", "",
                     "--model-out", str(model)]) == 0
        # knocking out the start world breaks the initial fact
        text = model.read_text().replace("world 0: 1", "world 0: 0")
        model.write_text(text)
        assert main(["check-model", simple, str(model)]) == 1
        assert "violated: init x\nverdict: INVALID\n" in (
            capsys.readouterr().out)

    def test_failure_only_at_a_sentinel_world_invalid(self, tmp_path,
                                                      capsys):
        # [P]x holds at every checked world but hi + 2, whose past takes in
        # the false right region at hi + 1
        path = write(tmp_path, "p.snf", "operators: P\nclause: [P]x\n")
        model = write(tmp_path, "p.model",
                      "vars: x\nleft: 1\nworld 0: 1\nworld 1: 1\nright: 0\n")
        assert main(["check-model", path, model]) == 1
        assert "violated: clause [P]x at world 3\nverdict: INVALID\n" in (
            capsys.readouterr().out)

    def test_invalid_report_names_the_first_failing_clause(self, tmp_path,
                                                           capsys):
        # a | b holds everywhere; ~a | b fails at worlds 3 and 4, and the
        # empty clause after it at every world
        path = write(tmp_path, "f.snf", "operators: *\nclause: a | b\n"
                     "clause: b | ~a\nclause:\n")
        model = write(tmp_path, "f.model",
                      "vars: a b\nstart: 2\nleft: 0 1\nworld 2: 1 1\n"
                      "world 3: 1 0\nright: 1 0\n")
        assert main(["check-model", path, model]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[:-1] == [
            "command: check-model", f"formula: {path}", f"model: {model}",
            "vars: 2", "clauses: 3", "violated: clause ~a | b at world 3",
            "verdict: INVALID"]
        empty = write(tmp_path, "e.snf",
                      "operators: *\nclause: a | b\nclause:\n")
        assert main(["check-model", empty, model]) == 1
        assert "violated: clause (empty) at world 0\n" in (
            capsys.readouterr().out)

    def test_variable_mismatch_is_an_input_error(self, simple, tmp_path,
                                                 capsys):
        bad = write(tmp_path, "bad.model",
                    "vars: y\nleft: 0\nworld 0: 0\nright: 0\n")
        assert main(["check-model", simple, bad]) == 2
        assert capsys.readouterr() == (
            "", "error: model variable set does not match the formula\n")


class TestSolve:
    def test_star(self, simple, tmp_path, capsys):
        assert main(["solve", simple, "--oracle", "star",
                     "--model-out", str(tmp_path / "w.model")]) == 0
        assert "verdict: SAT" in capsys.readouterr().out

    def test_window_negative_answer(self, tmp_path, capsys):
        phi = SnfFormula(frozenset({Mod.FUT}), ("s",),
                         (Clause([Lit("s", positive=False)]),))
        path = snf(tmp_path, "w.snf", phi)
        assert main(["solve", path, "--oracle", "window", "--window", "2"]) == 1
        assert "verdict: NO_MODEL_WITHIN_WINDOW" in capsys.readouterr().out

    def test_star_rejects_a_future_literal_the_operators_omit(self, tmp_path,
                                                              capsys):
        path = write(tmp_path, "f.snf",
                     "operators: *\nclause: [F]x1 | [F]x3\n")
        assert main(["solve", path, "--oracle", "star"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: a clause uses an operator the formula does not declare\n")

    @pytest.mark.parametrize("oracle", [["star"], ["window", "--window", "2"]])
    def test_undeclared_operator_is_an_input_error(self, tmp_path, capsys,
                                                   oracle):
        # the window oracle alone would answer SAT: its semantics do not read
        # the declared operators, but the file is one `validate` rejects
        path = write(tmp_path, "f.snf", "operators: *\nclause: [F]x | y\n")
        model = tmp_path / "f.model"
        assert main(["solve", path, "--oracle", *oracle,
                     "--model-out", str(model)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: a clause uses an operator the formula does not declare\n")
        assert not model.exists()

    def test_runs_as_a_module_uninstalled(self, simple):
        # `python -m ltlbd` with only src/ on the path, as the README shows
        src = Path(ltlbd.__file__).parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "ltlbd", "solve", simple, "--oracle", "star"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        assert "verdict: SAT" in done.stdout

    def test_window_over_the_clause_budget_is_an_input_error(self, tmp_path,
                                                             capsys):
        # 300 copies of the clause at width 4000 would ground 1.2M clauses
        path = write(tmp_path, "big.snf", "operators: F P\n"
                     + "clause: x | [F]x | ~[P]x\n" * 300)
        model = tmp_path / "big.model"
        assert main(["solve", path, "--oracle", "window", "--window", "4000",
                     "--model-out", str(model)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: encoding budget exceeded: ")
        assert captured.err.count("\n") == 1
        assert not model.exists()

    def test_window_requires_width(self, simple, capsys):
        assert main(["solve", simple, "--oracle", "window"]) == 2
        assert capsys.readouterr() == (
            "", "error: --window is required for the window oracle\n")

    def test_star_refuses_a_window(self, simple, tmp_path, capsys):
        # the star oracle is exact and reads no window width
        model = tmp_path / "w.model"
        assert main(["solve", simple, "--oracle", "star", "--window", "3",
                     "--model-out", str(model)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --window applies only to the window oracle\n")
        assert not model.exists()


class TestReduce:
    def test_pipeline(self, tmp_path, capsys):
        col = write(tmp_path, "tri.col", TRIANGLE_COL)
        out = str(tmp_path / "tri.snf")
        assert main(["reduce", col, "--target", "star-krom", "--out", out]) == 0
        sidecar = Path(out + ".backdoor")
        assert sidecar.read_text().strip() == "b1,b2"
        assert main(["validate", out]) == 0
        assert main(["detect", out, "--class", "krom", "-k", "2"]) == 0
        capsys.readouterr()

    def test_fp_horn_target(self, tmp_path, capsys):
        col = write(tmp_path, "tri.col", TRIANGLE_COL)
        out = str(tmp_path / "tri_fp.snf")
        assert main(["reduce", col, "--target", "fp-horn", "--out", out]) == 0
        assert Path(out + ".backdoor").read_text().strip() == "c1,c2,c3,p3_prime"
        phi = parse_snf(Path(out).read_text())
        assert phi.operators == {Mod.FUT, Mod.PAST}
        capsys.readouterr()

    @pytest.mark.parametrize("target, oracle", [
        ("star-krom", ["--oracle", "star"]),  # 14 variables: the encoding
        ("fp-horn", ["--oracle", "window", "--window", "5"]),
    ])
    def test_solved_reduction_certificate_checks(self, tmp_path, capsys,
                                                 target, oracle):
        col = write(tmp_path, "tri.col", TRIANGLE_COL)
        out = str(tmp_path / "tri.snf")
        assert main(["reduce", col, "--target", target, "--out", out]) == 0
        if target == "star-krom":
            assert len(parse_snf(Path(out).read_text()).variables) == 14
        assert main(["solve", out, *oracle]) == 0
        model = str(tmp_path / "tri.model")
        assert main(["check-model", out, model]) == 0
        capsys.readouterr()

    def test_k4_star_krom_reduction_is_unsat(self, tmp_path, capsys):
        col = write(tmp_path, "k4.col", "p edge 4 6\n" + "".join(
            f"e {i} {j}\n" for i in range(1, 5) for j in range(i + 1, 5)))
        out = str(tmp_path / "k4.snf")
        assert main(["reduce", col, "--target", "star-krom", "--out", out]) == 0
        assert len(parse_snf(Path(out).read_text()).variables) == 24
        assert main(["solve", out, "--oracle", "star"]) == 1
        assert "UNSAT" in capsys.readouterr().out

    def test_bad_graph_is_input_error(self, tmp_path, capsys):
        col = write(tmp_path, "bad.col", "p edge 2 1\ne 1 1\n")
        assert main(["reduce", col, "--target", "star-krom"]) == 2

    def test_negative_edge_count_is_input_error(self, tmp_path, capsys):
        col = write(tmp_path, "bad.col", "p edge 3 -5\n")
        assert main(["reduce", col, "--target", "star-krom"]) == 2
        assert capsys.readouterr().err == (
            "error: negative edge count -5 (line 1)\n")
        assert not (tmp_path / "bad.snf").exists()

    @pytest.mark.parametrize("target", ["star-krom", "fp-horn"])
    def test_graph_over_the_vertex_limit_is_an_input_error(self, tmp_path,
                                                           capsys, target):
        col = write(tmp_path, "big.col",
                    f"p edge {REDUCE_VERTEX_LIMIT + 1} 0\n")
        out = tmp_path / "big.snf"
        t0 = time.perf_counter()
        assert main(["reduce", col, "--target", target,
                     "--out", str(out)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == (
            f"error: at most {REDUCE_VERTEX_LIMIT} vertices\n")
        assert not out.exists()


class TestGen:
    def test_deterministic_and_verified(self, tmp_path, capsys):
        args = ["gen", "--vars", "6", "--clauses", "8", "--plant", "krom",
                "--backdoor-size", "2", "--ops", "FP*", "--seed", "7"]
        out1 = str(tmp_path / "a.snf")
        out2 = str(tmp_path / "b.snf")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()
        backdoor = Path(out1 + ".backdoor").read_text().strip()
        phi = parse_snf(Path(out1).read_text())
        from ltlbd.detection import KROM, verify_backdoor
        assert verify_backdoor(phi, backdoor.split(","), KROM)
        capsys.readouterr()

    def test_zero_backdoor_is_already_in_class(self, tmp_path, capsys):
        out = str(tmp_path / "c.snf")
        assert main(["gen", "--vars", "4", "--clauses", "5", "--plant", "horn",
                     "--backdoor-size", "0", "--ops", "*", "--seed", "1",
                     "--out", out]) == 0
        phi = parse_snf(Path(out).read_text())
        from ltlbd.formula import clause_is_horn
        assert all(clause_is_horn(c) for c in phi.clauses)
        capsys.readouterr()

    @pytest.mark.parametrize("size", [
        ["--vars", "3", "--clauses", "-2", "--backdoor-size", "1"],
        ["--vars", "0", "--clauses", "3", "--backdoor-size", "0"],
        ["--vars", "3", "--clauses", "3", "--backdoor-size", "4"],
        ["--vars", "-3", "--clauses", "0", "--backdoor-size", "0"],
    ], ids=["negative-clauses", "clauses-without-variables",
            "backdoor-over-variables", "negative-variables"])
    def test_bad_size_is_an_input_error(self, tmp_path, capsys, size):
        out = tmp_path / "bad.snf"
        assert main(["gen", *size, "--plant", "horn", "--ops", "*",
                     "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("size", [
        ["--vars", str(GEN_SIZE_LIMIT + 1), "--clauses", "1"],
        ["--vars", "1", "--clauses", str(GEN_SIZE_LIMIT + 1)],
    ], ids=["vars", "clauses"])
    def test_size_over_the_limit_is_an_input_error(self, tmp_path, capsys,
                                                   size):
        out = tmp_path / "big.snf"
        t0 = time.perf_counter()
        assert main(["gen", *size, "--plant", "horn", "--backdoor-size", "0",
                     "--ops", "*", "--seed", "1", "--out", str(out)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == (
            f"error: at most {GEN_SIZE_LIMIT} variables and clauses\n")
        assert not out.exists()

    def test_ops_separators_are_skipped(self, tmp_path, capsys):
        out = str(tmp_path / "ops.snf")
        assert main(["gen", "--vars", "4", "--clauses", "5", "--plant", "horn",
                     "--backdoor-size", "1", "--ops", " F, P ", "--seed", "1",
                     "--out", out]) == 0
        assert parse_snf(Path(out).read_text()).operators == {Mod.FUT,
                                                              Mod.PAST}
        capsys.readouterr()

    def test_unknown_ops_character_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "ops.snf"
        assert main(["gen", "--vars", "4", "--clauses", "5", "--plant", "horn",
                     "--backdoor-size", "1", "--ops", "F;P", "--seed", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown operator character ';'\n")
        assert not out.exists()


def assert_one_error_line(capsys) -> None:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


class TestMalformedFiles:
    @pytest.mark.parametrize("table", [
        "vars: x\nleft: 0\nworld 0: 1\nworld 1000000000000: 1\nright: 0\n",
        "vars: x\nleft 0\n",
        "vars: x\nvars: x\n",
        "left: 0\nvars: x\n",
        "vars: x\nworld 1: 0\nworld 1: 1\n",
        "vars: x\nmiddle: 0\n",
        "vars: x\nworld one: 0\n",
    ], ids=["distant-worlds", "no-colon", "second-vars", "row-before-vars",
            "repeated-world", "unknown-row", "world-not-integer"])
    def test_model_table_is_an_input_error(self, simple, tmp_path, capsys,
                                           table):
        model = write(tmp_path, "bad.model", table)
        t0 = time.perf_counter()
        assert main(["check-model", simple, model]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("graph", [
        "p edge 3 0\np edge 3 0\n", "p edge 3 1\ne 1\n",
        "p edge 3 1\nx 1 2\n", "c no problem line\n", "p edge 3 x\n",
    ], ids=["second-p", "short-e", "unknown-line", "no-p", "m-not-integer"])
    def test_graph_is_an_input_error(self, tmp_path, capsys, graph):
        col = write(tmp_path, "bad.col", graph)
        out = tmp_path / "bad.snf"
        assert main(["reduce", col, "--target", "star-krom",
                     "--out", str(out)]) == 2
        assert_one_error_line(capsys)
        assert not out.exists()


def test_package_import_loads_no_cli_module():
    # a fresh `import ltlbd` is the whole setup of the reduce-3col and
    # gen-large benchmark workloads, so the command-line and file modules
    # load only on demand
    src = Path(ltlbd.__file__).parent.parent
    done = subprocess.run(
        [sys.executable, "-c", "import sys, ltlbd; print(*sorted(sys.modules))"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "ltlbd.propsat" in loaded
    assert not loaded & {"ltlbd.cli", "ltlbd.fileio", "ltlbd.gen", "argparse"}
    # nor the value types' former dataclass machinery
    assert not loaded & {"dataclasses", "inspect"}
