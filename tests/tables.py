"""Shared fixtures: the worked three-vertex example and its model tables,
the record of an evaluation result in ``data/eval_corpus.txt``, random
graphs, and the cover and hitting checks of detection's answers.

The tables transcribe the known models for the proper colouring (1, 2, 3).
Cells the constructions leave free are 0, except the colour variables on the
frozen edge rows of the past/future gadget, which must still name exactly
one colour (colour 1 by convention).
"""

import itertools

from ltlbd.fileio import format_model_table
from ltlbd.reductions import Graph

TRIANGLE = Graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
K4 = Graph(4, frozenset(itertools.combinations(range(1, 5), 2)))

TRIANGLE_KROM_TABLE = """\
vars: b1 b2 e_1_2_bb e_1_2_bn e_1_2_nb e_1_3_bb e_1_3_bn e_1_3_nb e_2_3_bb e_2_3_bn e_2_3_nb v1 v2 v3
start: 1
left: 0 0 1 0 0 1 0 0 0 0 1 1 1 1
world 1: 0 0 1 0 0 1 0 0 0 0 1 0 1 1
world 2: 1 0 1 0 0 1 0 0 0 0 1 1 0 1
world 3: 0 1 1 0 0 1 0 0 0 0 1 1 1 0
right: 0 0 1 0 0 1 0 0 0 0 1 1 1 1
"""

TRIANGLE_HORN_TABLE = """\
vars: c1 c2 c3 p1 p2 p3 p3_prime s v1_1 v1_2 v1_3 v2_1 v2_2 v2_3 v3_1 v3_2 v3_3
start: 1
left: 1 0 0 1 1 1 0 0 1 0 0 0 1 0 0 0 1
world 1: 1 0 0 0 1 1 0 1 1 0 0 0 1 0 0 0 1
world 2: 0 1 0 1 0 1 0 0 1 0 0 0 1 0 0 0 1
world 3: 0 0 1 1 1 0 1 0 1 0 0 0 1 0 0 0 1
right: 1 0 0 1 1 1 0 0 1 0 0 0 1 0 0 0 1
"""


def _bits(row: dict) -> str:
    return "".join("1" if row[v] else "0" for v in sorted(row))


def describe(result) -> dict:
    """The verdict, the candidates tried, the theta set (members and the
    designated ``initial`` as bits over the sorted backdoor), the assignment
    set's rows in order and its initial row (bits over the sorted variables)
    and the model table of an :class:`~ltlbd.evaluation.EvalResult`."""
    if not result.satisfiable:
        return {"verdict": result.verdict, "tried": result.tried}
    ts, aset = result.theta_set, result.assignment_set
    return {"verdict": result.verdict, "tried": result.tried,
            "theta": [_bits(m) for m in ts.members],
            "designated": _bits(ts.initial),
            "rows": [_bits(m) for m in aset.members],
            "initial": _bits(aset.initial),
            "table": format_model_table(result.interpretation)}


def random_graph(rng, n):
    """A graph on n vertices, each of its possible edges drawn with
    probability 1/2."""
    pool = list(itertools.combinations(range(1, n + 1), 2))
    return Graph(n, frozenset(e for e in pool if rng.random() < 0.5))


def covers(graph, chosen):
    chosen = set(chosen)
    return all(chosen & set(e) for e in graph.edges)


def hits(family, chosen):
    chosen = set(chosen)
    return all(chosen & set(s) for s in family.sets)
