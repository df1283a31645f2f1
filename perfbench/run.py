#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the ltlbd library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/``.  Set-up
times the import in fresh interpreters and generates the corpus, several
times over.  Then one client runs the corpus in a closed loop, pass after
pass, for about ``--seconds`` seconds; each instance's verdicts are checked
against references.  Instance times are reported in reference units: each is
divided by the time of a fixed pure-Python loop run around it, which cancels
most of the drift in speed of a shared host.  The last line of output is one
JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a traced run (``--trace 1``); the line before it holds the run's
metadata.  The exit code is 0 only if every verdict was right.

``--size tiny`` shrinks every corpus for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Modules the runners and the tracer use; a missing one shows as absent.
MODULES = ("fileio", "formula", "interp", "detection", "evaluation", "propsat",
           "_kernels", "oracle", "reductions", "gen")
SETUP_REPEATS = 5
#: Sizes of the reference loop's two parts: integer arithmetic, and the
#: hashing, allocation and sorting that the library's own work is made of.
#: Together about 6 ms on a 2-vCPU Xeon VM.
REF_ITERATIONS = 30_000
REF_ITEMS = 2_500
#: The reference loop runs after an instance only once this many seconds
#: have passed since the last one, which keeps it under a fifth of a run.
REF_GAP_S = 0.05
#: One thread per run: the library makes no BLAS calls, and starting the
#: OpenBLAS thread pool puts a load-sensitive cost into every import.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ltlbd; "
                "print(time.perf_counter() - t)")
TRACE_METRICS = [f"{name}.{part}" for name in spans.SPANS
                 for part in ("self_s", "calls")]
TRACE_METRICS += [c for c in spans.COUNTERS if c != "evaluation.sat_encodings"]
TRACE_METRICS += ["evaluation.useful_ratio", "trace.overhead"]


class SetupError(RuntimeError):
    """The library cannot be found or imported."""


def load_library() -> SimpleNamespace:
    if not (SRC / "ltlbd" / "__init__.py").is_file():
        raise SetupError(f"no ltlbd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("ltlbd")
    except ImportError as exc:
        raise SetupError(f"cannot import ltlbd: {exc}") from exc
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"ltlbd imported from {package.__file__}, not {SRC}")
    lib = SimpleNamespace()
    for name in MODULES:
        try:
            setattr(lib, name, importlib.import_module(f"ltlbd.{name}"))
        except ModuleNotFoundError:
            pass
    return lib


def time_import() -> float:
    """Seconds to import the package in a fresh interpreter."""
    env = {**os.environ, **SINGLE_THREAD}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SetupError(f"import probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip())


def setup(workload, seed: int, size: str):
    """Import time plus corpus generation, repeated; returns the corpus and
    the median set-up time."""
    times, corpus = [], None
    for _ in range(SETUP_REPEATS):
        seconds = time_import()
        t0 = perf_counter()
        corpus = workload.make(seed, size)
        times.append(seconds + perf_counter() - t0)
    return corpus, statistics.median(times)


def reference_loop() -> float:
    """Seconds for fixed work that calls nothing from the library, so no
    change to the library moves it; only the host's speed does.  Integer
    arithmetic alone tracks the library's speed poorly when neighbours load
    the host's caches, so half the loop builds and hashes containers."""
    t0 = perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    counts: dict = {}
    sets = []
    for i in range(REF_ITEMS):
        k = i * 7919 % 4099
        key = (f"x{k}", k & 3)
        counts[key] = counts.get(key, 0) + 1
        if i % 3 == 0:
            sets.append(frozenset((k, k >> 1, k >> 2)))
    sorted(counts.items())
    set().union(*sets)
    return perf_counter() - t0


def prepare(lib, workload, corpus) -> None:
    """Computes every reference answer, outside any timed region."""
    for inst in corpus:
        inst.expect = workload.reference(lib, inst)


class Stats:
    """Per-instance times of every pass, in reference units; a failed
    instance keeps none."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.passes: list[float] = []   # per pass: sum of instance seconds
        self.ref_s: list[float] = []    # every reference loop's seconds
        self.instance_s = [[] for _ in corpus]
        self.instance_ref = [[] for _ in corpus]
        self.verdict_ref: dict[tuple, list] = {}  # (index, sign, j) -> times
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def medians(self, sign=None) -> list[float]:
        """Each instance's (or verdict's) median time over the passes, in
        reference units."""
        if sign is None:
            return [statistics.median(t) for t in self.instance_ref if t]
        return [statistics.median(t) for (_, s, _), t in
                sorted(self.verdict_ref.items()) if s == sign]

    def record(self, runs: list, ref: float) -> None:
        """Stores correct instance runs, as (index, seconds, verdicts), with
        their times divided by the reference loop's time ``ref``."""
        for index, seconds, verdicts in runs:
            self.instance_s[index].append(seconds)
            self.instance_ref[index].append(seconds / ref)
            for j, v in enumerate(verdicts):
                self.verdict_ref.setdefault((index, v.sign, j), []).append(
                    v.seconds / ref)

    def wall_s(self) -> float:
        """The corpus once in seconds: the sum of the instance medians."""
        return sum(statistics.median(t) for t in self.instance_s if t)

    def verdict_counts(self) -> dict:
        """Instance group -> verdict sign -> count, for one pass."""
        out: dict = {}
        for index, sign, _ in self.verdict_ref:
            group = self.corpus[index].name.rsplit("/", 1)[0]
            counts = out.setdefault(group, {})
            counts[sign] = counts.get(sign, 0) + 1
        return dict(sorted(out.items()))


def run_pass(lib, workload, corpus, stats: Stats, tracer=None) -> None:
    """One pass over the corpus.  Each instance run is divided by the mean of
    the reference loops that bracket it: the one before and the first one
    after, which runs once ``REF_GAP_S`` has passed, and at the end."""
    total = 0.0
    ref_before = reference_loop()
    last_ref = perf_counter()
    pending = []  # correct runs since the last reference loop
    for index, inst in enumerate(corpus):
        gc.collect()
        stats.attempted += 1
        verdicts, error = [], None
        if tracer is not None:
            tracer.instance = index
        t0 = perf_counter()
        try:
            if tracer is None:
                verdicts = workload.run(lib, inst)
            else:
                with tracer.span("instance"):
                    verdicts = workload.run(lib, inst)
        except Exception:  # a crash is a failed instance, not a failed run
            error = traceback.format_exc()
        seconds = perf_counter() - t0
        total += seconds
        if error or not verdicts or not all(v.ok for v in verdicts):
            stats.failed += 1
            if len(stats.errors) < 3:
                stats.errors.append(error or f"wrong verdict on {inst.name}")
        else:
            pending.append((index, seconds, verdicts))
        if perf_counter() - last_ref >= REF_GAP_S or index == len(corpus) - 1:
            ref_after = reference_loop()
            last_ref = perf_counter()
            stats.ref_s.append(ref_after)
            stats.record(pending, (ref_before + ref_after) / 2)
            pending.clear()
            ref_before = ref_after
    if tracer is not None:
        tracer.instance = None
    stats.passes.append(total)


def measure(lib, workload, corpus, seconds: float, tracer=None) -> Stats:
    """Closed loop, one client: whole passes for as near ``seconds`` as whole
    passes allow, so the run ends within half a pass of it; always at least
    one pass."""
    stats = Stats(corpus)
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        run_pass(lib, workload, corpus, stats, tracer)
        now = perf_counter()
        if now + (now - t0) / 2 > deadline:
            return stats


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(stats: Stats, setup_s: float) -> dict:
    """Each instance counts with its median time over the passes, in
    reference units; wall_ref sums those medians over the corpus."""
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref": (sum(stats.medians()), "ref"),
        "instance_ref.p50": (_median(stats.medians()), "ref"),
        "positive_ref.p50": (_median(stats.medians(workloads.POSITIVE)), "ref"),
        "negative_ref.p50": (_median(stats.medians(workloads.NEGATIVE)), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def per_layer(tracer, traced: Stats, plain: Stats) -> dict:
    """Per pass over the corpus: self time and calls of every span, and the
    counters."""
    n = len(traced.passes)
    totals = tracer.totals()
    out = {}
    for name in spans.SPANS:
        self_s, calls = totals.get(name, (0.0, 0))
        out[f"{name}.self_s"] = (self_s / n, "s")
        out[f"{name}.calls"] = (calls / n, "count")
    counts = tracer.counts
    for name in spans.COUNTERS:
        if name != "evaluation.sat_encodings":
            out[name] = (counts[name] / n,
                         "B" if name == "fileio.bytes_parsed" else "count")
    built = counts["evaluation.candidates"]
    out["evaluation.useful_ratio"] = (
        counts["evaluation.sat_encodings"] / built if built else 0.0, "ratio")
    untraced = sum(plain.medians())
    out["trace.overhead"] = (
        sum(traced.medians()) / untraced if untraced else 0.0, "ratio")
    return out


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def metadata(args, workload, corpus, stats: Stats, lib) -> dict:
    samples = {
        "setup_s": SETUP_REPEATS,
        "wall_ref": len(stats.passes),
        "instance_ref.p50": len(stats.medians()),
        "positive_ref.p50": len(stats.medians(workloads.POSITIVE)),
        "negative_ref.p50": len(stats.medians(workloads.NEGATIVE)),
    }
    meta = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": _version("numpy"),
        "numba": _version("numba"),
        "numba_active": bool(getattr(getattr(lib, "_kernels", None),
                                     "HAVE_NUMBA", False)),
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "instances": len(corpus), "passes": len(stats.passes),
        "attempted": stats.attempted, "failed": stats.failed,
        "failed_frac": stats.failed / max(stats.attempted, 1),
        "pass_s": stats.passes,
        "wall_s": stats.wall_s(),
        "ref_loop_s": _median(stats.ref_s),
        "verdicts_per_pass": stats.verdict_counts(),
        "samples": samples,
    }
    if len(stats.medians()) >= 100:
        meta["instance_ref.p90"] = statistics.quantiles(stats.medians(),
                                                        n=10)[-1]
    return meta


def run(args) -> tuple[dict, dict, int]:
    """One benchmark run; returns the result object, the metadata and the
    exit code."""
    workload = workloads.WORKLOADS[args.workload]
    lib = load_library()
    corpus, setup_s = setup(workload, args.seed, args.size)
    prepare(lib, workload, corpus)
    if args.trace:
        plain = Stats(corpus)
        run_pass(lib, workload, corpus, plain)
        tracer = spans.Tracer()
        tracer.install()
        origin = perf_counter()
        try:
            stats = measure(lib, workload, corpus,
                            max(args.seconds - sum(plain.passes), 0), tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, stats, plain)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload.name}-{args.seed}.tsv", origin)
        stats.attempted += plain.attempted
        stats.failed += plain.failed
        stats.errors += plain.errors
    else:
        stats = measure(lib, workload, corpus, args.seconds)
        metrics = end_to_end(stats, setup_s)
    meta = metadata(args, workload, corpus, stats, lib)
    if args.trace:
        meta["absent"] = tracer.absent
        meta["untraced_wall_s"] = plain.wall_s()
    signs = {sign for _, sign, _ in stats.verdict_ref}
    both = signs == {workloads.POSITIVE, workloads.NEGATIVE}
    correct = stats.failed == 0 and both
    result = {
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for error in stats.errors:
        print(error, file=sys.stderr)
    return result, meta, 0 if correct else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(SINGLE_THREAD)
    try:
        result, meta, code = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
