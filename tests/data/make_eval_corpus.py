"""Regenerate ``eval_corpus.txt``, the committed certificates of backdoor
evaluation that ``test_evaluation.py`` replays.

Run from the repository root:

    python tests/data/make_eval_corpus.py

The corpus stores formula texts, not seeds, so a change to a generator does
not change it.  It holds the 140 formulas of the benchmark's seed-7
``evaluate-star`` corpus, each through its planted backdoor, then 300 seeded
always-only :func:`~ltlbd.gen.random_formula` instances, each through its
smallest detected Horn backdoor (formulas whose smallest one has more than
three variables are skipped).  Each line is one JSON object: the name, the
formula text, the backdoor and ``tables.describe`` of the result.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

from ltlbd.detection import detect_horn_backdoor  # noqa: E402
from ltlbd.evaluation import evaluate_horn_star  # noqa: E402
from ltlbd.fileio import format_snf, parse_snf  # noqa: E402
from ltlbd.formula import Mod  # noqa: E402
from ltlbd.gen import random_formula  # noqa: E402
from perfbench.workloads import make_evaluate  # noqa: E402
from tables import describe  # noqa: E402

CORPUS = Path(__file__).with_name("eval_corpus.txt")


def entries():
    """``(name, formula text, backdoor)`` of every corpus entry, in order."""
    for inst in make_evaluate(7, "full"):
        yield (f"evaluate-star/7/{inst.name}", inst.params["text"],
               sorted(inst.params["backdoor"]))
    rng = random.Random("eval-corpus")
    count = 0
    while count < 300:
        n_vars = rng.randint(2, 9)
        phi = random_formula(rng, n_vars, rng.randint(n_vars, 2 * n_vars), 3,
                             {Mod.STAR})
        found = next((b for k in range(4)
                      if (b := detect_horn_backdoor(phi, k)) is not None),
                     None)
        if found is not None:
            yield f"random/{count}", format_snf(phi), sorted(found)
            count += 1


def main() -> None:
    lines = []
    for name, text, backdoor in entries():
        result = evaluate_horn_star(parse_snf(text), backdoor)
        lines.append(json.dumps({"name": name, "formula": text,
                                 "backdoor": backdoor, **describe(result)}))
    CORPUS.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
