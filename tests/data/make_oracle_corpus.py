"""Regenerate ``oracle_corpus.txt``, the committed witnesses of the star and
window oracles and of the 3-colouring reductions that ``test_oracle.py``
replays.

Run from the repository root:

    python tests/data/make_oracle_corpus.py

The corpus stores formula and graph texts, not seeds, so a change to a
generator does not change it.  It holds, in order:

- the 140 formulas of the benchmark's seed-7 ``evaluate-star`` corpus
  through :func:`~ltlbd.oracle.star_sat_oracle` (the scan strategy);
- 40 seeded always-only :func:`~ltlbd.gen.random_formula` instances of
  13-18 occurring variables through the star oracle (the encoding
  strategy);
- 120 always-only instances of 2-8 variables through both strategies;
- 240 instances of 1-3 variables, cycling through all eight operator sets,
  through :func:`~ltlbd.oracle.window_sat_oracle` at widths 0-3;
- the 48 graphs of the benchmark's seed-7 ``reduce-3col`` corpus as DIMACS
  text, each through its workload's reduction and oracle, with the
  colouring that :func:`~ltlbd.reductions.coloring_from_model` reads back.

Each line is one JSON object.  A formula entry holds the name, the formula
text and ``answers``, which maps each call (``star``, ``scan``,
``encoding`` or ``window W``) to the model table text of its witness, or
null.  A graph entry holds the name, the graph text, the target, the model
table (or null) and the colouring of vertices 1..n (or null).
"""

import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ltlbd.fileio import (format_dimacs_col, format_model_table,  # noqa: E402
                          format_snf, parse_dimacs_col, parse_snf)
from ltlbd.formula import Mod  # noqa: E402
from ltlbd.gen import random_formula  # noqa: E402
from ltlbd.oracle import (SCAN_VAR_LIMIT, _star_by_encoding,  # noqa: E402
                          _star_by_scan, star_sat_oracle, window_sat_oracle)
from ltlbd.reductions import (STAR_KROM, Graph,  # noqa: E402
                              coloring_from_model, threecol_to_fp_horn,
                              threecol_to_star_krom)
from perfbench.workloads import make_evaluate, make_reduce  # noqa: E402

CORPUS = Path(__file__).with_name("oracle_corpus.txt")
OPERATOR_SETS = [set(ops) for size in range(4)
                 for ops in itertools.combinations(
                     (Mod.PAST, Mod.FUT, Mod.STAR), size)]
CALLS = {"star": star_sat_oracle, "scan": _star_by_scan,
         "encoding": _star_by_encoding,
         **{f"window {w}": (lambda phi, w=w: window_sat_oracle(phi, w))
            for w in range(4)}}


def table(witness):
    return None if witness is None else format_model_table(witness)


def formulas():
    """``(name, formula text, calls)`` of every formula entry, in order."""
    for inst in make_evaluate(7, "full"):
        yield f"evaluate-star/7/{inst.name}", inst.params["text"], ["star"]
    rng = random.Random("oracle-corpus")
    count = 0
    while count < 40:
        n = rng.randint(13, 18)
        phi = random_formula(rng, n, rng.randint(3 * n // 4, 2 * n), 4,
                             {Mod.STAR})
        if len(phi.variables) > SCAN_VAR_LIMIT:  # else the scan would run
            yield f"encoding/{count}", format_snf(phi), ["star"]
            count += 1
    for i in range(120):
        n = rng.randint(2, 8)
        phi = random_formula(rng, n, rng.randint(1, 3 * n), 3, {Mod.STAR})
        yield f"both/{i}", format_snf(phi), ["scan", "encoding"]
    for i in range(240):
        n = rng.randint(1, 3)
        phi = random_formula(rng, n, rng.randint(1, 2 * n + 1), 3,
                             OPERATOR_SETS[i % len(OPERATOR_SETS)])
        yield (f"window/{i}", format_snf(phi),
               [f"window {w}" for w in range(4)])


def reduced_witness(graph: Graph, target: str):
    """The witness of ``run_reduce`` in the benchmark: star-krom through
    the star oracle, fp-horn through the window oracle at width n + 2."""
    if target == STAR_KROM:
        return star_sat_oracle(threecol_to_star_krom(graph)[0])
    return window_sat_oracle(threecol_to_fp_horn(graph)[0], graph.n + 2)


def main() -> None:
    lines = []
    for name, text, calls in formulas():
        phi = parse_snf(text)
        answers = {call: table(CALLS[call](phi)) for call in calls}
        lines.append(json.dumps({"name": name, "formula": text,
                                 "answers": answers}))
    for inst in make_reduce(7, "full"):
        text = format_dimacs_col(Graph(inst.params["n"],
                                       frozenset(inst.params["edges"])))
        graph, target = parse_dimacs_col(text), inst.params["target"]
        witness = reduced_witness(graph, target)
        colouring = None if witness is None else coloring_from_model(
            graph, witness, target)
        lines.append(json.dumps({
            "name": f"reduce-3col/7/{inst.name}", "graph": text,
            "target": target, "table": table(witness),
            "colouring": None if colouring is None
            else [colouring[i] for i in range(1, graph.n + 1)]}))
    CORPUS.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
