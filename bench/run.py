#!/usr/bin/env python3
"""Benchmark for claimcheck.

    python3 bench/run.py --workload golden-replay --seed 1 --seconds 12 --trace 0

One closed-loop client in this process starts full pipeline runs back to
back for --seconds seconds. Every run directory is checked: within one
invocation all runs of a workload must be byte-identical, and the first must
pass the workload's output check. With --trace 0 the end-to-end metrics are
reported; with --trace 1 the same untraced loop runs first, then one traced
run and one traced resume give the per-layer metrics and the tracing
overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads as wl

SETUP_REPEATS = 3
# Timed resumes after each full run, so they sample the whole loop's time.
RESUMES_PER_RUN = 3

# Fixed so that every workload reports the same metric names.
TASK_KINDS = ("extract-entities", "extract-claims", "classify-provenance",
              "nli-verdict", "coherence", "overclaim", "align-claims",
              "citation-fidelity", "root-cause", "rubric", "describe-asset",
              "hypothesize", "counter-hypothesize", "embed")


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    calls: int
    problems: list[str] = field(default_factory=list)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float,
                 work: Path):
        from claimcheck.config import PipelineConfig

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.cfg = PipelineConfig()
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: str | None = None   # digest every run must match
        self.inputs: wl.Inputs | None = None
        self.backend = None

    # --- set-up ------------------------------------------------------------------

    def setup(self, repeats: int) -> list[float]:
        """Set the workload up `repeats` times in fresh interpreters; the
        copies must be identical."""
        times, digests = [], []
        for i in range(repeats):
            out = self.work / f"setup-{i}"
            start = time.perf_counter()
            subprocess.run([sys.executable, str(wl.BENCH_DIR / "workloads.py"),
                            "--workload", self.workload,
                            "--seed", str(self.seed), "--out", str(out)],
                           check=True)
            times.append(time.perf_counter() - start)
            digests.append(checks.dir_digest(out, skip=wl.PREP_DIR))
            if i:
                self._record([] if digests[i] == digests[0] else
                             [f"set-up {i} differs from set-up 0"])
                shutil.rmtree(out)
        self.inputs = wl.Inputs.load(self.work / "setup-0")
        if self.workload == "live-latency":
            import live_backend
            self.backend = live_backend.backend = live_backend.SimulatedBackend(
                self.inputs.transcript, wl.LIVE_LATENCY_S)
        return times

    def _spec(self, live: bool):
        from claimcheck.pipeline import ProviderSpec
        if live:
            return ProviderSpec(mode="live", backend="live_backend:backend")
        return ProviderSpec(mode="replay", fixtures=str(self.inputs.transcript))

    # --- runs --------------------------------------------------------------------

    def _record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))

    def _check(self, run_dir: Path) -> list[str]:
        digest = checks.dir_digest(run_dir)
        if self.reference is None:
            self.reference = digest
            if self.workload == "bulk-corpus":
                return checks.check_bulk(run_dir, self.inputs.oracle)
            return checks.check_golden(run_dir)
        if digest != self.reference:
            return [f"{run_dir.name} differs from the first run directory"]
        return []

    def _timed(self, fn, counter) -> Outcome:
        if self.backend is not None:
            self.backend.reset()
        # Start every measurement from the same collector state, so a full
        # collection of the previous run's garbage never lands inside it.
        gc.collect()
        calls = counter.calls
        wall, cpu = time.perf_counter(), time.process_time()
        problems = []
        try:
            fn()
        except Exception as exc:  # a failed run is counted, not fatal
            problems.append(f"{type(exc).__name__}: {exc}")
        outcome = Outcome(time.perf_counter() - wall,
                          time.process_time() - cpu, counter.calls - calls,
                          problems)
        if self.backend is not None and self.backend.calls != outcome.calls:
            problems.append(f"backend served {self.backend.calls} calls, "
                            f"router made {outcome.calls}")
        return outcome

    def full_run(self, out: Path, counter, keep: bool = False) -> Outcome:
        from claimcheck.pipeline import run
        outcome = self._timed(
            lambda: run(self.inputs.query, self.inputs.corpus, out, self.cfg,
                        self._spec(self.backend is not None),
                        target_doc=self.inputs.target_doc), counter)
        if not outcome.problems:
            outcome.problems += self._check(out)
        self._record(outcome.problems)
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return outcome

    def prepare_resume(self, counter) -> Path:
        """A run directory with layers 1-5 done, from set-up where it made
        one. One untimed, checked resume of it warms caches."""
        from claimcheck.pipeline import run
        prep = self.work / "setup-0" / wl.PREP_DIR
        if not prep.exists():
            run(self.inputs.query, self.inputs.corpus, prep, self.cfg,
                self._spec(False), target_doc=self.inputs.target_doc,
                stop_after="layer5")
        self.resume_run(prep, self.work / "warm-up", counter)
        return prep

    def resume_run(self, prep: Path, out: Path, counter) -> Outcome:
        from claimcheck.pipeline import resume
        shutil.copytree(prep, out)
        spec = self._spec(self.backend is not None)
        outcome = self._timed(lambda: resume(out, provider_spec=spec), counter)
        if not outcome.problems:
            outcome.problems += self._check(out)
        self._record(outcome.problems)
        shutil.rmtree(out, ignore_errors=True)
        return outcome

    def loop(self, counter, prep: Path | None = None
             ) -> tuple[list[Outcome], list[Outcome]]:
        """Back-to-back full runs until --seconds of run time is spent, each
        followed by RESUMES_PER_RUN timed resumes of `prep` when given."""
        runs: list[Outcome] = []
        resumes: list[Outcome] = []
        while not runs or sum(o.wall_s for o in runs) < self.seconds:
            runs.append(self.full_run(self.work / f"run-{len(runs)}", counter))
            if prep is not None:
                resumes += [self.resume_run(prep, self.work / "resume", counter)
                            for _ in range(RESUMES_PER_RUN)]
        return runs, resumes

    # --- modes -------------------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        from tracing import CallCounter
        setup_times = self.setup(SETUP_REPEATS)
        counter = CallCounter()
        counter.install()
        try:
            prep = self.prepare_resume(counter)
            runs, resumes = self.loop(counter, prep)
        finally:
            counter.uninstall()
        print(f"benchmark: medians of {len(setup_times)} set-ups, "
              f"{len(runs)} full runs and {len(resumes)} resumes",
              file=sys.stderr)
        return {
            "run_s": (statistics.median(o.wall_s for o in runs), "s"),
            "cpu_s": (statistics.median(o.cpu_s for o in runs), "s"),
            "resume_s": (statistics.median(o.wall_s for o in resumes), "s"),
            "provider_calls": (statistics.median_low(o.calls for o in runs),
                               "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
            "ok_share": ((self.attempted - len(self.failures))
                         / self.attempted, "ratio"),
        }

    def per_layer(self, trace_out: Path) -> dict[str, tuple[float, str]]:
        from tracing import CallCounter, Tracer
        self.setup(1)
        counter = CallCounter()
        counter.install()
        try:
            prep = self.prepare_resume(counter)
            untraced = statistics.median(o.wall_s
                                         for o in self.loop(counter)[0])
            tracer = Tracer()
            tracer.install()
            try:
                tracer.run_id = "run"
                traced_dir = self.work / "traced-run"
                traced = self.full_run(traced_dir, counter, keep=True)
                tracer.run_id = "resume"
                self.resume_run(prep, self.work / "traced-resume", counter)
            finally:
                tracer.uninstall()
        finally:
            counter.uninstall()
        tracer.dump(trace_out)
        if traced.problems:
            raise RuntimeError(f"traced run failed: {traced.problems}")
        print(call_table(tracer), file=sys.stderr)
        return layer_metrics(tracer, traced_dir, traced.wall_s, untraced)


def _lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def layer_metrics(tracer, run_dir: Path, traced_s: float,
                  untraced_s: float) -> dict[str, tuple[float, str]]:
    from tracing import percentile
    counts = tracer.counts("run")
    layers = tracer.layer_times("run")
    missing = sorted(set(("corpus", "knowledge", "intradoc", "crosssource",
                          "signals", "assess")) - set(layers))
    if missing:
        raise RuntimeError(f"traced run recorded no span for {missing}")
    manifest = json.loads((run_dir / "manifest.json").read_text("utf-8"))
    store = run_dir / "store"
    call_ms = tracer.call_ms("run")
    total = tracer.total
    m: dict[str, tuple[float, str]] = {
        "provider.calls": (len(call_ms), "count")}
    for kind in TASK_KINDS:
        m[f"provider.calls.{kind}"] = (counts[f"calls.{kind}"], "count")
    for module in layers:
        m[f"provider.calls.{module}"] = (counts[f"calls.{module}"], "count")
    m.update({
        "provider.attempts": (counts["attempts"], "count"),
        "provider.retries": (counts["retries"], "count"),
        "provider.failed": (counts["provider.failed"], "count"),
        "provider.busy_s": (tracer.busy("run"), "s"),
        "provider.backend_s": (total("provider.backend", "run"), "s"),
        "provider.validate_s": (total("provider.validate", "run"), "s"),
        "provider.call_ms.p50": (percentile(call_ms, 50), "ms"),
        "provider.call_ms.p99": (percentile(call_ms, 99), "ms"),
        "provider.inflight_max": (counts["inflight_max"], "count"),
    })
    for module, (wall, own) in layers.items():
        m[f"{module}.wall_s"] = (wall, "s")
        m[f"{module}.self_s"] = (own, "s")
    align_calls = counts["align.calls"]
    m.update({
        "corpus.load_s": (total("corpus.load", "run"), "s"),
        "corpus.ingest_s": (total("corpus.ingest", "run"), "s"),
        "corpus.score_s": (total("corpus.score", "run"), "s"),
        "corpus.embed_records": (_lines(store / "embeddings.jsonl"), "count"),
        "corpus.search_calls": (sum(1 for s in tracer.spans
                                    if s.name == "corpus.search"
                                    and s.run_id == "run"), "count"),
        "corpus.search_s": (total("corpus.search", "run"), "s"),
        "knowledge.claims": (_lines(store / "claims.jsonl"), "count"),
        "knowledge.graph_builds": (sum(1 for s in tracer.spans
                                       if s.name == "knowledge.graph_build"
                                       and s.run_id == "run"), "count"),
        "knowledge.graph_build_s": (total("knowledge.graph_build", "run"),
                                    "s"),
        "intradoc.evidence_links": (_lines(store / "evidence_links.jsonl"),
                                    "count"),
        "crosssource.discover_s": (total("crosssource.discover", "run"), "s"),
        "crosssource.docs_discovered": (len(tracer.discovered), "count"),
        "crosssource.docs_processed": (len(manifest["docs_processed"]),
                                       "count"),
        "crosssource.align_calls": (align_calls, "count"),
        "crosssource.align_useful": (counts["align.useful"], "count"),
        "crosssource.align_useful_ratio": (
            counts["align.useful"] / align_calls if align_calls else 0.0,
            "ratio"),
        "signals.graph_edges": (tracer.graph_edges.get("run|signals", 0),
                                "count"),
        "assess.fanout_s": (total("assess.fanout", "run"), "s"),
        "assess.matrix_rows": (_lines(store / "matrix.jsonl"), "count"),
        "pipeline.init_s": (total("pipeline.init", "run"), "s"),
        "pipeline.write_s": (total("pipeline.write", "run"), "s"),
        "pipeline.bytes_written": (counts["bytes_written"], "bytes"),
        "pipeline.read_s": (total("pipeline.read", "resume"), "s"),
        "pipeline.threads_started": (counts["threads_started"], "count"),
        "trace.run_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_share": ((traced_s - untraced_s) / untraced_s,
                                 "ratio"),
    })
    return m


def call_table(tracer) -> str:
    """Provider calls of the traced run by (module, kind)."""
    cells: dict[tuple[str, str], int] = {}
    for span in tracer.spans:
        if span.name == "provider.invoke" and span.run_id == "run":
            key = (span.layer or "none", span.kind)
            cells[key] = cells.get(key, 0) + 1
    lines = [f"{'module':<12} {'kind':<20} {'calls':>6}"]
    for (module, kind), n in sorted(cells.items()):
        lines.append(f"{module:<12} {kind:<20} {n:>6}")
    lines.append(f"{'total':<33} {sum(cells.values()):>6}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="claimcheck benchmark")
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl.use_checkout_source()
    work = wl.ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.seconds, work)
    try:
        if args.trace:
            trace_out = (wl.ROOT / ".bench_out" /
                         f"trace-{args.workload}-seed{args.seed}.jsonl")
            metrics = bench.per_layer(trace_out)
        else:
            metrics = bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in bench.failures:
        print(f"benchmark: failed run: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
