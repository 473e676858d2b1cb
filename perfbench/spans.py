"""Layer spans recorded from outside the simulator.

The benchmark treats ``src/`` as a black box: every span is recorded by
wrapping a public entry point of one layer (see :func:`install`), never
a per-uop or per-cycle method.  Spans live in memory and are aggregated
when the phase ends.  Engine pool workers leave through ``os._exit``,
so no exit hook runs there: a worker appends its spans to a spool file
after every job instead.

A span's self time is its duration minus the durations of its child
spans.  Only the spans of the process that runs the phase account for
its wall time; spans of pool workers add busy time to their layers.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import statistics
import time
from typing import Dict, List


class Tracer:
    """Per-process span recorder.

    A span is a dict with a process-unique ``id``, its ``parent`` id (or
    None), ``name``, ``start``/``end`` (``perf_counter`` seconds) and
    optional counts (``uops``, ``bytes``, ``cycles``, ``hit``, ``jobs``).
    """

    def __init__(self, spool_dir: pathlib.Path):
        self.spool_dir = spool_dir
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: List[dict] = []
        self.stack: List[dict] = []
        self.count = 0

    def open(self, name: str) -> dict:
        if os.getpid() != self.pid:
            # A forked pool worker inherits the parent's spans and open
            # stack; it reports only its own work.
            self.pid = os.getpid()
            self.spans = []
            self.stack = []
        self.count += 1
        span = {"id": f"{self.pid}:{self.count}", "name": name,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()
        if not self.stack and self.pid != self.main_pid:
            self.flush()

    def flush(self) -> None:
        """Append this worker's finished spans to its spool file."""
        path = self.spool_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def wrap(self, name: str, func, count=None):
        """*func* wrapped in a span; ``count(span, args, kwargs, result)``
        may attach counts to the span."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(span, args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Patch each layer's public entry points with span wrappers."""
    from repro import workloads
    from repro.analytic import AnalyticModel, TraceProfile
    from repro.energy import EnergyModel
    from repro.harness import engine, figures, runner, tracestore
    from repro.isa import traceio
    from repro.workloads import base

    def count_uops(span, args, kwargs, result):
        span["uops"] = len(result)

    def count_encode(span, args, kwargs, result):
        span["uops"] = len(args[0])
        span["bytes"] = len(result)

    def count_decode(span, args, kwargs, result):
        span["uops"] = len(result)
        span["bytes"] = len(args[0])

    def count_hit(span, args, kwargs, result):
        span["hit"] = result is not None

    def count_jobs(span, args, kwargs, result):
        span["jobs"] = len(result)

    def count_profile_uops(span, args, kwargs, result):
        workload = runner.load_workload(args[0], **kwargs)
        span["uops"] = len(workload.trace())

    # ``runner`` and ``workloads.base`` bind these two names at import,
    # so the wrapper replaces them in the calling module's namespace.
    runner.get_workload = tracer.wrap("workloads.build",
                                      workloads.get_workload)
    base.execute = tracer.wrap("functional", base.execute, count_uops)

    traceio.dumps_trace = tracer.wrap("traceio.encode", traceio.dumps_trace,
                                      count_encode)
    traceio.loads_trace = tracer.wrap("traceio.decode", traceio.loads_trace,
                                      count_decode)
    store = tracestore.TraceStore
    store.get = tracer.wrap("tracestore.read", store.get, count_hit)
    store.put = tracer.wrap("tracestore.write", store.put)

    make_pipeline = runner.make_pipeline

    @functools.wraps(make_pipeline)
    def traced_make_pipeline(mode, trace, *args, **kwargs):
        span = tracer.open("sim.construct")
        try:
            pipeline = make_pipeline(mode, trace, *args, **kwargs)
        finally:
            tracer.close(span)
        uops = len(trace)

        def count_run(span, _args, _kwargs, result):
            span["uops"] = uops
            span["cycles"] = result.cycles

        pipeline.run = tracer.wrap(f"sim.{mode}", pipeline.run, count_run)
        return pipeline

    runner.make_pipeline = traced_make_pipeline
    # The Fig. 1 ROB profile runs a baseline core without make_pipeline.
    runner.rob_stall_profile = tracer.wrap(
        "sim.baseline", runner.rob_stall_profile, count_profile_uops)
    EnergyModel.compute = tracer.wrap("energy", EnergyModel.compute)

    cache = engine.ResultCache
    cache.get = tracer.wrap("engine.cache_get", cache.get, count_hit)
    cache.put = tracer.wrap("engine.cache_put", cache.put)
    engine.Engine.run = tracer.wrap("engine.run", engine.Engine.run,
                                    count_jobs)
    engine.Engine._prewarm_workloads = staticmethod(tracer.wrap(
        "engine.prewarm", engine.Engine._prewarm_workloads))
    # Pickled by qualified name, so pool workers resolve the wrapper.
    engine._execute_job = tracer.wrap("engine.job", engine._execute_job)

    TraceProfile.from_trace = classmethod(tracer.wrap(
        "analytic.profile", TraceProfile.from_trace.__func__))
    AnalyticModel.predict = tracer.wrap("analytic.predict",
                                        AnalyticModel.predict)
    figures.run_figures = tracer.wrap("figures", figures.run_figures)


def load_spool(spool_dir: pathlib.Path) -> List[dict]:
    spans: List[dict] = []
    for path in sorted(spool_dir.glob("spans-*.jsonl")):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle)
    return spans


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time of each span by id: duration minus its children's."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(main_spans: List[dict], worker_spans: List[dict],
                  phase_wall: float, workers: int) -> Dict[str, float]:
    """Per-layer metrics of one traced phase.

    A layer's time is the sum of its spans' self times over every
    process.  ``trace.unattributed_s`` is the leftover: the part of the
    phase's wall time that no span of the phase's own process covers,
    so that process's self times plus the leftover equal the wall time.
    """
    spans = main_spans + worker_spans
    own = self_times(spans)
    busy: Dict[str, float] = {}
    for span in spans:
        busy[span["name"]] = busy.get(span["name"], 0.0) + own[span["id"]]

    def named(name: str) -> List[dict]:
        return [span for span in spans if span["name"] == name]

    def total(name: str, key: str) -> float:
        return sum(span.get(key, 0) for span in named(name))

    def durations(name: str) -> List[float]:
        return [span["end"] - span["start"] for span in named(name)]

    modes = ("baseline", "cdf", "pre")
    sim_s = sum(busy.get(f"sim.{mode}", 0.0) for mode in modes)
    sim_uops = sum(total(f"sim.{mode}", "uops") for mode in modes)
    timed_cycles = [span for mode in modes for span in named(f"sim.{mode}")
                    if "cycles" in span]
    reads = named("tracestore.read")
    gets = named("engine.cache_get")
    jobs = durations("engine.job")
    coded_uops = total("traceio.decode", "uops") + \
        total("traceio.encode", "uops")
    coded_bytes = total("traceio.decode", "bytes") + \
        total("traceio.encode", "bytes")
    predictions = durations("analytic.predict")

    metrics = {
        "workloads.build_s": busy.get("workloads.build", 0.0),
        "functional.s": busy.get("functional", 0.0),
        "functional.kips": _ratio(total("functional", "uops") / 1e3,
                                  busy.get("functional", 0.0)),
        "traceio.encode_s": busy.get("traceio.encode", 0.0),
        "traceio.decode_s": busy.get("traceio.decode", 0.0),
        "traceio.decode_us_per_uop": _ratio(
            busy.get("traceio.decode", 0.0) * 1e6,
            total("traceio.decode", "uops")),
        "traceio.bytes_per_uop": _ratio(coded_bytes, coded_uops),
        "tracestore.hit_frac": _ratio(sum(span["hit"] for span in reads),
                                      len(reads)),
        "tracestore.read_s": busy.get("tracestore.read", 0.0),
        "tracestore.write_s": busy.get("tracestore.write", 0.0),
        "sim.construct_s": busy.get("sim.construct", 0.0),
        "sim.us_per_uop": _ratio(sim_s * 1e6, sim_uops),
        "sim.ns_per_cycle": _ratio(
            sum(own[span["id"]] for span in timed_cycles) * 1e9,
            sum(span["cycles"] for span in timed_cycles)),
        "energy.compute_s": busy.get("energy", 0.0),
        "analytic.profile_s": busy.get("analytic.profile", 0.0),
        "analytic.predict_us": (statistics.median(predictions) * 1e6
                                if predictions else 0.0),
        "engine.jobs": total("engine.run", "jobs"),
        "engine.cache_hit_frac": _ratio(sum(span["hit"] for span in gets),
                                        len(gets)),
        "engine.cache_get_s": busy.get("engine.cache_get", 0.0),
        "engine.cache_put_s": busy.get("engine.cache_put", 0.0),
        "engine.job_p50_s": statistics.median(jobs) if jobs else 0.0,
        "engine.job_max_s": max(jobs) if jobs else 0.0,
        "engine.prewarm_s": busy.get("engine.prewarm", 0.0),
        "engine.parallel_eff": _ratio(
            sum(jobs), sum(durations("engine.run")) * workers),
        # When jobs ran on a pool, Engine.run's own time is mostly
        # waiting for the workers.
        "engine.pool_wait_s": busy.get("engine.run", 0.0)
        if worker_spans else 0.0,
        "engine.self_s": busy.get("engine.job", 0.0) +
        (0.0 if worker_spans else busy.get("engine.run", 0.0)),
        "figures.self_s": busy.get("figures", 0.0),
        "trace.unattributed_s": phase_wall - sum(
            own[span["id"]] for span in main_spans),
    }
    for mode in modes:
        seconds = busy.get(f"sim.{mode}", 0.0)
        metrics[f"sim.{mode}_s"] = seconds
        metrics[f"sim.{mode}_kips"] = _ratio(
            total(f"sim.{mode}", "uops") / 1e3, seconds)
    return metrics
