"""Spans around calls into the library, installed from outside it.

A ``Tracer`` replaces each named public function with a timing wrapper in
every ``ltlbd`` module namespace that binds it, so calls between modules
are seen as well as calls from the benchmark.  Spans stay in memory as
``(name, start, end, parent, instance)`` tuples and are written out once at
the end.  A name that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

#: "<module>.<function>" for every span of the per-layer table.
SPANS = (
    "fileio.parse_snf",
    "fileio.format_snf",
    "fileio.format_model_table",
    "fileio.parse_model_table",
    "interp.models",
    "interp.from_assignment_set",
    "formula.remove_tautologies",
    "formula.reduct",
    "detection.build_horn_conflict_graph",
    "detection.build_krom_hitting_family",
    "detection.vertex_cover",
    "detection.hitting_set_3",
    "detection.verify_backdoor",
    "evaluation.evaluate_horn_star",
    "evaluation.propositionalize",
    "evaluation.relabel_copy",
    "propsat.horn_sat",
    "propsat.solve_cnf",
    "_kernels.star_scan",
    "_kernels.search_solve",
    "oracle.star_sat_oracle",
    "oracle.window_sat_oracle",
    "reductions.threecol_to_star_krom",
    "reductions.threecol_to_fp_horn",
    "reductions.coloring_from_model",
    "gen.planted_instance",
)

#: Counters recorded at the same boundaries.
COUNTERS = (
    "fileio.bytes_parsed",
    "detection.edges",
    "detection.sets",
    "evaluation.candidates",
    "evaluation.encoding_clauses",
    "evaluation.sat_encodings",
    "propsat.solve_clauses",
)

PACKAGE = "ltlbd"


def _count_parse(tracer, fn, args, kwargs):
    tracer.add("fileio.bytes_parsed", lambda: len(args[0]))  # ASCII files
    return fn(*args, **kwargs)


def _count_edges(tracer, fn, args, kwargs):
    graph = fn(*args, **kwargs)
    tracer.add("detection.edges", lambda: len(graph.edges))
    return graph


def _count_sets(tracer, fn, args, kwargs):
    family = fn(*args, **kwargs)
    tracer.add("detection.sets", lambda: len(family.sets))
    return family


def _count_candidates(tracer, fn, args, kwargs):
    """Counts every encoding built through the ``on_candidate`` hook."""
    caller = kwargs.get("on_candidate")

    def on_candidate(ts, cnf):
        tracer.add("evaluation.candidates", lambda: 1)
        tracer.add("evaluation.encoding_clauses", lambda: len(cnf))
        if caller is not None:
            caller(ts, cnf)

    result = fn(*args, **{**kwargs, "on_candidate": on_candidate})
    tracer.add("evaluation.sat_encodings", lambda: int(result.satisfiable))
    return result


def _count_clauses(tracer, fn, args, kwargs):
    tracer.add("propsat.solve_clauses", lambda: len(args[0]))
    return fn(*args, **kwargs)


#: Span name -> (counters it feeds, wrapper body, parameter the body needs).
_HOOKS = {
    "fileio.parse_snf": (("fileio.bytes_parsed",), _count_parse, None),
    "detection.build_horn_conflict_graph": (("detection.edges",),
                                            _count_edges, None),
    "detection.build_krom_hitting_family": (("detection.sets",),
                                            _count_sets, None),
    "evaluation.evaluate_horn_star": (
        ("evaluation.candidates", "evaluation.encoding_clauses",
         "evaluation.sat_encodings"), _count_candidates, "on_candidate"),
    "propsat.solve_cnf": (("propsat.solve_clauses",), _count_clauses, None),
}


def _plain_call(tracer, fn, args, kwargs):
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.instance = None
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.absent: list[str] = []
        self._patched: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter: str, amount) -> None:
        """Adds ``amount()``; a counter whose input changed shape is marked
        absent instead of failing the traced call."""
        if counter in self.absent:
            return
        try:
            self.counts[counter] += amount()
        except (AttributeError, TypeError):
            self.absent.append(counter)

    @contextmanager
    def span(self, name: str):
        """Records one span around the body; the innermost open span is its
        parent."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = (self._id(name), start, end, parent, self.instance)

    def _wrap(self, name: str, fn, body):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return body(self, fn, args, kwargs)

        return traced

    def install(self, names=SPANS) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for name in names:
            module_name, _, attr = name.rpartition(".")
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, attr, None)
            counters, body, needs = _HOOKS.get(name, ((), _plain_call, None))
            if not callable(original):
                self.absent += [name, *counters]
                continue
            if needs and needs not in inspect.signature(original).parameters:
                self.absent += counters
                body = _plain_call
            wrapper = self._wrap(name, original, body)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def totals(self) -> dict:
        """Name -> [self seconds, calls]; self time is a span's duration
        minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0.0, 0] for name in self.names}
        for i, (nid, start, end, _, _) in enumerate(self.spans):
            row = out[self.names[nid]]
            row[0] += (end - start) - child[i]
            row[1] += 1
        return out

    def write(self, path: Path, origin: float) -> None:
        """One tab-separated line per span, times relative to ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_s\tend_s\tparent\tinstance\n")
            for nid, start, end, parent, inst in self.spans:
                out.write(f"{self.names[nid]}\t{start - origin:.7f}\t"
                          f"{end - origin:.7f}\t{parent}\t"
                          f"{'' if inst is None else inst}\n")
