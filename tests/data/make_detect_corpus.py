"""Regenerate ``detect_corpus.txt``, the committed answers of backdoor
detection that ``test_detection.py`` replays.

Run from the repository root:

    python tests/data/make_detect_corpus.py

The corpus stores formula texts, not seeds, so a change to a generator does
not change it.  It holds 300 seeded :func:`~ltlbd.gen.random_formula`
instances of 2-8 variables, cycling through all eight operator sets, some
with seeded tautologies.  For each class, with ``min`` the size of the
smallest strong backdoor of the tautology-free core
(:func:`~ltlbd.detection.minimal_backdoor_bruteforce`), it records the set
or NONE (``null``) that detection returns at k = min - 1 (when min > 0) and
at k = min.  Each line is one JSON object: the name, the formula text and
one list of ``[k, sorted set or null]`` pairs per class.
"""

import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from ltlbd.detection import (HORN, KROM, detect_horn_backdoor,  # noqa: E402
                             detect_krom_backdoor,
                             minimal_backdoor_bruteforce)
from ltlbd.fileio import format_snf, parse_snf  # noqa: E402
from ltlbd.formula import Mod, remove_tautologies  # noqa: E402
from ltlbd.gen import random_formula  # noqa: E402

CORPUS = Path(__file__).with_name("detect_corpus.txt")
DETECT = {HORN: detect_horn_backdoor, KROM: detect_krom_backdoor}
OPERATOR_SETS = [set(ops) for size in range(4)
                 for ops in itertools.combinations(
                     (Mod.PAST, Mod.FUT, Mod.STAR), size)]


def answers(phi) -> dict:
    """Per class, ``[k, set]`` at k = min - 1 (when min > 0) and k = min."""
    core = remove_tautologies(phi)
    out = {}
    for target, detect in DETECT.items():
        low = len(minimal_backdoor_bruteforce(core, target))
        out[target] = []
        for k in range(max(low - 1, 0), low + 1):
            found = detect(phi, k)
            out[target].append([k, None if found is None else sorted(found)])
    return out


def main() -> None:
    rng = random.Random("detect-corpus")
    lines = []
    for i in range(300):
        n_vars = rng.randint(2, 8)
        phi = random_formula(rng, n_vars, rng.randint(1, 2 * n_vars), 4,
                             OPERATOR_SETS[i % len(OPERATOR_SETS)],
                             seed_tautologies=rng.random() < 0.2)
        text = format_snf(phi)
        lines.append(json.dumps({"name": f"random/{i}", "formula": text,
                                 **answers(parse_snf(text))}))
    CORPUS.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
