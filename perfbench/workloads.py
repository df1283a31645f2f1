"""The benchmark's workloads: seeded input generators, references and
instance runners.

Every workload turns a seed into a corpus of instances without calling the
library.  Each instance runs through the library calls that the matching
``ltlbd`` command makes and returns its verdicts, each checked against a
reference that does not depend on the step under test.  ``lib`` is the
namespace of imported ``ltlbd`` modules built by ``run.load_library``; the
runners look functions up on those modules at call time, so the traced run
sees them through its wrappers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

POSITIVE = "positive"  # SAT, FOUND, or a planted set that verifies
NEGATIVE = "negative"  # UNSAT, NONE, no model within the window, or a set that fails


@dataclass
class Verdict:
    sign: str
    ok: bool
    seconds: float  # time to this checked verdict, shared preparation included


@dataclass
class Instance:
    name: str
    params: dict
    expect: object = None  # the reference answer; None until computed


@dataclass
class Workload:
    name: str
    why: str
    make: Callable[[int, str], list]   # (seed, size) -> instances
    run: Callable                      # (lib, instance) -> list[Verdict]
    reference: Callable = field(default=lambda lib, inst: inst.params["expect"])


# --- formula text ----------------------------------------------------------

_TAG = {"": "", "F": "[F]", "P": "[P]", "*": "[*]"}


def _lit(var: str, mod: str, positive: bool) -> str:
    return ("" if positive else "~") + _TAG[mod] + var


def snf_text(ops: list[str], initial: list[str], clauses: list[list]) -> str:
    """Formula file text; a clause is a list of (var, mod, positive)."""
    lines = ["operators: " + " ".join(ops)]
    if initial:
        lines.append("init: " + ", ".join(initial))
    lines.extend("clause: " + " | ".join(_lit(*lit) for lit in c)
                 for c in clauses)
    return "\n".join(lines) + "\n"


def _slots(rng: random.Random, variables: list, mods: list, count: int) -> list:
    """``count`` distinct (variable, modality) pairs."""
    picked: set = set()
    while len(picked) < count:
        picked.add((rng.choice(variables), rng.choice(mods)))
    return sorted(picked)


# --- detect-large ----------------------------------------------------------

OPERATOR_SETS = (["*"], ["F", "P", "*"])


def _decoy(rng, filler, mods, width):
    """A clause that ``remove_tautologies`` must drop: a negated always-literal
    next to the same variable's plain literal, plus ``width`` positives that
    would otherwise add conflict edges or 3-sets among filler variables."""
    y, *others = rng.sample(filler, width + 1)
    return ([(y, "*", False), (y, "", True)]
            + [(v, rng.choice(mods), True) for v in others])


def _planted_names(rng, names, count):
    """Names for the planted roles and the filler names.

    The roles take their names in one fixed relative order, drawn once from a
    constant seed.  The search trees branch in name order, so every seed
    gives them the same shape; only names, literals and filler vary.
    """
    chosen = set(rng.sample(names, count))
    ranked = sorted(chosen)
    shape = list(range(count))
    random.Random(f"detect-shape/{count}").shuffle(shape)
    return [ranked[i] for i in shape], [v for v in names if v not in chosen]


def horn_detect_formula(rng, ops, n_vars, n_filler, centres, leaves,
                        triangles, loops, decoys):
    """A formula whose minimal strong Horn backdoor has a known size.

    The only clauses with two positive literals outside the tautological
    decoys are the planted components, which are vertex-disjoint in the
    conflict graph: a complete bipartite graph between ``centres`` and
    ``leaves`` (minimum cover: the smaller side), triangles (2 each) and
    self-loops (forced, 1 each).  The minimum vertex cover, and so the
    backdoor size, is the sum over the components.
    """
    assert leaves > centres
    mods = [""] + ops
    names = [f"x{i}" for i in range(n_vars)]
    rng.shuffle(names)
    planted_vars = centres + leaves + 3 * triangles + loops
    taken, filler = _planted_names(rng, names, planted_vars)
    it = iter(taken)
    clauses = []

    def edge(a, b):
        c = [(a, rng.choice(mods), True), (b, rng.choice(mods), True)]
        for v in rng.sample(filler, rng.randint(0, 2)):
            c.append((v, rng.choice(mods), False))
        clauses.append(c)

    hubs = [next(it) for _ in range(centres)]
    for leaf in [next(it) for _ in range(leaves)]:
        for hub in hubs:
            edge(hub, leaf)
    for _ in range(triangles):
        a, b, c = next(it), next(it), next(it)
        edge(a, b), edge(b, c), edge(a, c)
    for _ in range(loops):
        v = next(it)
        m1, m2 = rng.sample(mods, 2)
        clauses.append([(v, m1, True), (v, m2, True)])
    for _ in range(n_filler):
        n_pos = rng.randint(0, 1)
        picked = _slots(rng, names, mods, rng.randint(max(n_pos, 1), 3))
        clauses.append([(v, m, k < n_pos) for k, (v, m) in enumerate(picked)])
    for _ in range(decoys):
        clauses.append(_decoy(rng, filler, mods, 2))
    rng.shuffle(clauses)
    return clauses, centres + 2 * triangles + loops


def krom_detect_formula(rng, ops, n_vars, n_filler, flowers, petals, wide,
                        wide_len, decoys):
    """A formula whose minimal strong Krom backdoor has a known size.

    The only clauses with three or more literals outside the decoys are the
    planted components.  ``flowers`` centres share ``petals`` disjoint
    variable pairs, one 3-clause per centre and pair: a hitting set either
    takes a centre or hits every pair, so with more pairs than centres the
    minimum is the number of centres.  A clause over ``wide_len`` private
    variables needs ``wide_len - 2`` of them.  The minimum is the sum.
    """
    assert petals > flowers
    mods = [""] + ops
    names = [f"x{i}" for i in range(n_vars)]
    rng.shuffle(names)
    planted_vars = flowers + 2 * petals + wide * wide_len
    taken, filler = _planted_names(rng, names, planted_vars)
    it = iter(taken)
    clauses = []

    def lit(v):
        return (v, rng.choice(mods), rng.random() < 0.5)

    hubs = [next(it) for _ in range(flowers)]
    for a, b in [(next(it), next(it)) for _ in range(petals)]:
        for hub in hubs:
            clauses.append([lit(hub), lit(a), lit(b)])
    for _ in range(wide):
        clauses.append([lit(next(it)) for _ in range(wide_len)])
    for _ in range(n_filler):
        picked = _slots(rng, names, mods, rng.randint(1, 2))
        clauses.append([(v, m, rng.random() < 0.5) for v, m in picked])
    for _ in range(decoys):
        clauses.append(_decoy(rng, filler, mods, 2))
    rng.shuffle(clauses)
    return clauses, flowers + wide * (wide_len - 2)


DETECT_SIZES = {
    # target: (instances per operator set, generator arguments)
    "full": {
        "horn": (2, dict(n_vars=3000, n_filler=2000, centres=9, leaves=440,
                         triangles=2, loops=2, decoys=60)),
        "krom": (2, dict(n_vars=3000, n_filler=1500, flowers=6, petals=1000,
                         wide=1, wide_len=4, decoys=60)),
    },
    "tiny": {
        "horn": (1, dict(n_vars=80, n_filler=60, centres=2, leaves=6,
                         triangles=1, loops=1, decoys=3)),
        "krom": (1, dict(n_vars=80, n_filler=60, flowers=2, petals=6,
                         wide=1, wide_len=4, decoys=3)),
    },
}


def make_detect(seed: int, size: str) -> list:
    rng = random.Random(f"detect-large/{seed}")
    out = []
    for target, (count, kwargs) in DETECT_SIZES[size].items():
        build = horn_detect_formula if target == "horn" else krom_detect_formula
        for ops in OPERATOR_SETS:
            for i in range(count):
                clauses, minimum = build(rng, ops, **kwargs)
                text = snf_text(ops, [], clauses)
                out.append(Instance(
                    f"{target}/{''.join(ops)}/{i}",
                    dict(text=text, target=target, expect=minimum)))
    return out


def run_detect(lib, inst) -> list:
    """``detect -k min-1`` (NONE) and ``detect -k min`` (FOUND) on one
    parsed formula, with the found set verified and its size checked against
    the size known by construction."""
    target, minimum = inst.params["target"], inst.expect
    t0 = perf_counter()
    phi = lib.fileio.parse_snf(inst.params["text"])
    core = lib.formula.remove_tautologies(phi)
    if target == "horn":
        space = lib.detection.build_horn_conflict_graph(core)
        search = lib.detection.vertex_cover
    else:
        space = lib.detection.build_krom_hitting_family(core)
        search = lib.detection.hitting_set_3
    t1 = perf_counter()
    none = search(space, minimum - 1)
    t2 = perf_counter()
    found = search(space, minimum)
    found_ok = (found is not None and len(found) == minimum
                and lib.detection.verify_backdoor(core, found, target))
    t3 = perf_counter()
    return [Verdict(NEGATIVE, none is None, t2 - t0),
            Verdict(POSITIVE, found_ok, (t1 - t0) + (t3 - t2))]


# --- evaluate-star ---------------------------------------------------------

def _star_holds(clause, rows) -> bool:
    """Whether an always-only clause holds at every world of the
    interpretation laid out by ``rows`` (always-literals read unanimity)."""
    for row in rows:
        if not any((all(r[v] for r in rows) if m == "*" else row[v]) == pos
                   for v, m, pos in clause):
            return False
    return True


def _shape(i: int) -> tuple[int, int, int]:
    """Clause i's (positive, negative) literal counts outside the backdoor
    and its count of positive backdoor literals: every formula of one size
    gets the same mix of clause shapes."""
    extra = 0 if i % 10 in (2, 5, 8) else 1 + i % 2
    return i % 2, 1 + (i // 2) % 3, extra


def star_eval_formula(rng, n_vars, k, n_clauses, unsat, projection=0):
    """An always-only formula with a planted strong Horn backdoor of size k.

    Clauses follow the planted construction (at most one positive literal
    outside the backdoor, only positive literals on it) and are kept only if
    a hidden interpretation satisfies them, so the formula is satisfiable.
    The hidden worlds agree on the backdoor, on the assignment numbered
    ``projection`` in candidate order, so the singleton candidate of that
    assignment succeeds.
    With ``unsat`` a Horn gadget is added that forces a backdoor variable
    both ways at the initial world: init r1, r1 -> r2, r2 -> b, r2 -> ~b.
    """
    mods = ["", "*"]
    variables = [f"x{i + 1}" for i in range(n_vars)]
    backdoor = sorted(rng.sample(variables, k))
    rest = [v for v in variables if v not in backdoor]
    while True:
        fixed = {v: bool(projection >> (k - 1 - j) & 1)
                 for j, v in enumerate(backdoor)}
        rows = [{**{v: rng.random() < 0.6 for v in rest}, **fixed}
                for _ in range(rng.randint(2, 3))]
        clauses = []
        for i in range(n_clauses):
            n_pos, n_neg, n_extra = _shape(i)
            for _ in range(200):
                picked = _slots(rng, rest, mods, n_pos + n_neg)
                c = [(v, m, j < n_pos) for j, (v, m) in enumerate(picked)]
                c += [(v, m, True) for v, m in
                      _slots(rng, backdoor, mods, n_extra)]
                if _star_holds(c, rows):
                    clauses.append(c)
                    break
        initial = sorted(v for v in variables
                         if rows[0][v] and rng.random() < 0.3)
        if unsat:
            r1, r2 = rng.sample(rest, 2)
            b = rng.choice(backdoor)
            initial = sorted(set(initial) | {r1})
            clauses += [[(r1, "", False), (r2, "", True)],
                        [(r2, "", False), (b, "", True)],
                        [(r2, "", False), (b, "", False)]]
        occurring = {v for c in clauses for v, _, _ in c}
        if len(clauses) >= n_clauses and occurring == set(variables):
            return clauses, initial, backdoor


EVAL_SIZES = {
    # (backdoor size, satisfiable, instances)
    "full": [(2, True, 50), (3, True, 50), (2, False, 40)],
    "tiny": [(2, True, 1), (3, True, 1), (2, False, 1)],
}


def make_evaluate(seed: int, size: str) -> list:
    rng = random.Random(f"evaluate-star/{seed}")
    out = []
    for k, sat, count in EVAL_SIZES[size]:
        for i in range(count):
            n = 6 + i % 5
            clauses, initial, backdoor = star_eval_formula(
                rng, n, k, 2 * n, not sat, (i // 5) % 2 ** k)
            out.append(Instance(
                f"k{k}/{'sat' if sat else 'unsat'}/{i}",
                dict(text=snf_text(["*"], initial, clauses),
                     backdoor=backdoor, expect=sat)))
    return out


def run_evaluate(lib, inst) -> list:
    """The README pipeline: parse, ``detect``, ``evaluate`` through the
    planted backdoor, the model table round trip and ``check-model`` on SAT,
    and ``solve --oracle star`` as the cross-check."""
    backdoor = inst.params["backdoor"]
    t0 = perf_counter()
    phi = lib.fileio.parse_snf(inst.params["text"])
    found = lib.detection.detect_horn_backdoor(phi, len(backdoor))
    result = lib.evaluation.evaluate_horn_star(phi, backdoor)
    ok = found is not None and len(found) <= len(backdoor)
    if result.satisfiable:
        table = lib.fileio.format_model_table(result.interpretation)
        ok = ok and lib.interp.models(lib.fileio.parse_model_table(table), phi)
    witness = lib.oracle.star_sat_oracle(phi)
    ok = ok and (witness is not None) == result.satisfiable == inst.expect
    sign = POSITIVE if result.satisfiable else NEGATIVE
    return [Verdict(sign, ok, perf_counter() - t0)]


# --- reduce-3col -----------------------------------------------------------

def random_graph(rng, n, m, colourable):
    """``m`` edges on vertices 1..n.  A colourable graph only joins vertices
    of different planted colours, with colour classes as even as possible;
    an uncolourable one is a K4 on four random vertices plus random edges."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if colourable:
        colour = [0] + rng.sample([1 + i % 3 for i in range(n)], n)
        allowed = [(i, j) for i, j in pairs if colour[i] != colour[j]]
        return set(rng.sample(allowed, min(m, len(allowed))))
    quad = sorted(rng.sample(range(1, n + 1), 4))
    edges = {(a, b) for i, a in enumerate(quad) for b in quad[i + 1:]}
    others = [e for e in pairs if e not in edges]
    return edges | set(rng.sample(others, m - len(edges)))


REDUCE_SIZES = {
    # (target, vertices, edges, instances per verdict)
    "full": [("star-krom", 5, 6, 4), ("fp-horn", 10, 16, 20)],
    "tiny": [("star-krom", 4, 6, 1), ("fp-horn", 5, 7, 1)],
}


def make_reduce(seed: int, size: str) -> list:
    rng = random.Random(f"reduce-3col/{seed}")
    out = []
    for target, n, m, count in REDUCE_SIZES[size]:
        for colourable in (True, False):
            for i in range(count):
                edges = random_graph(rng, n, m, colourable)
                out.append(Instance(
                    f"{target}/{'sat' if colourable else 'unsat'}/{i}",
                    dict(n=n, edges=sorted(edges), target=target)))
    return out


def reference_reduce(lib, inst) -> bool:
    graph = lib.reductions.Graph(inst.params["n"],
                                 frozenset(inst.params["edges"]))
    return lib.reductions.brute_3col(graph) is not None


def run_reduce(lib, inst) -> list:
    """``reduce`` then ``solve``: star-krom through the star oracle's
    encoding path, fp-horn through the window oracle at width n+2; on SAT the
    colouring is read back and checked edge by edge."""
    n, edges, target = inst.params["n"], inst.params["edges"], inst.params["target"]
    red = lib.reductions
    t0 = perf_counter()
    graph = red.Graph(n, frozenset(edges))
    if target == "star-krom":
        phi, _ = red.threecol_to_star_krom(graph)
        witness = lib.oracle.star_sat_oracle(phi)
    else:
        phi, _ = red.threecol_to_fp_horn(graph)
        witness = lib.oracle.window_sat_oracle(phi, n + 2)
    ok = (witness is not None) == inst.expect
    if witness is not None:
        colouring = red.coloring_from_model(graph, witness, target)
        ok = ok and all(colouring[i] != colouring[j] for i, j in edges)
    sign = POSITIVE if witness is not None else NEGATIVE
    return [Verdict(sign, ok, perf_counter() - t0)]


# --- gen-large -------------------------------------------------------------

GEN_SIZES = {
    # (variables, clauses, target, backdoor size, operator set); the sizes
    # give both operator sets about the same generation time
    "full": [(700 if ops == ["*"] else 500, 1400 if ops == ["*"] else 1000,
              target, 4, ops)
             for _ in range(2) for target in ("horn", "krom")
             for ops in OPERATOR_SETS],
    "tiny": [(40, 80, "horn", 3, ["*"]), (40, 80, "krom", 3, ["F", "P", "*"])],
}


def make_gen(seed: int, size: str) -> list:
    rng = random.Random(f"gen-large/{seed}")
    return [Instance(f"{target}/{''.join(ops)}/{i}",
                     dict(seed=rng.randrange(2 ** 31), n=n, m=m,
                          target=target, k=k, ops=ops, expect=True))
            for i, (n, m, target, k, ops) in enumerate(GEN_SIZES[size])]


def witness_variable(phi, planted, target):
    """A planted variable whose removal leaves the set short of a backdoor.

    It names a clause whose only planted variable is that one and which is
    itself outside the target class (Horn: two positive literals, Krom: three
    literals).  No assignment to the other planted variables touches that
    clause, so it survives every reduct unchanged.  None if there is none.
    """
    back = set(planted)
    for c in phi.clauses:
        hit = {lit.var for lit in c} & back
        if len(hit) != 1:
            continue
        wide = (sum(lit.positive for lit in c) >= 2 if target == "horn"
                else len(c.literals) >= 3)
        if wide:
            return hit.pop()
    return None


def run_gen(lib, inst) -> list:
    """``gen``: the planted instance and its text.  Checked by the text round
    trip, by the planted set verifying, and by the planted set minus a
    witness variable failing to verify."""
    p = inst.params
    mods = {"F": lib.formula.Mod.FUT, "P": lib.formula.Mod.PAST,
            "*": lib.formula.Mod.STAR}
    t0 = perf_counter()
    phi, planted = lib.gen.planted_instance(
        p["seed"], p["n"], p["m"], p["target"], p["k"],
        {mods[o] for o in p["ops"]})
    text = lib.fileio.format_snf(phi)
    same = lib.fileio.parse_snf(text) == phi
    t1 = perf_counter()
    keep = lib.detection.verify_backdoor(phi, planted, p["target"])
    t2 = perf_counter()
    drop = witness_variable(phi, planted, p["target"])  # reference, untimed
    t3 = perf_counter()
    short = drop is not None and not lib.detection.verify_backdoor(
        phi, [v for v in planted if v != drop], p["target"])
    t4 = perf_counter()
    return [Verdict(POSITIVE, same and keep == inst.expect, t2 - t0),
            Verdict(NEGATIVE, same and short, (t1 - t0) + (t4 - t3))]


WORKLOADS = {w.name: w for w in (
    Workload("detect-large",
             "Horn and Krom detection on large parsed formulas of known "
             "minimal backdoor size; loads fileio, formula and detection only",
             make_detect, run_detect),
    Workload("evaluate-star",
             "always-only planted Horn instances through detect, evaluate, "
             "model-table round trip and the star oracle; loads evaluation "
             "and horn_sat",
             make_evaluate, run_evaluate),
    Workload("reduce-3col",
             "random graphs through both 3-colouring reductions and the star "
             "and window oracles; loads the CDCL search kernel",
             make_reduce, run_reduce, reference_reduce),
    Workload("gen-large",
             "planted-instance generation, formatting and round trip at "
             "500-700 variables; the only workload that measures gen",
             make_gen, run_gen),
)}
