"""One phase of a benchmark run, in a fresh interpreter.

    python3 perfbench/phase.py SPEC.json

``SPEC.json`` names the workload, the phase (``setup``, ``cold`` or
``warm``), the kernel seed, whether to record layer spans, and the file
this process writes its measurements to.  The caller sets
``REPRO_CACHE_DIR``, ``REPRO_JOBS`` and the working directory.

* ``setup`` fills the private trace store with the workload's traces.
* ``cold`` runs the workload's timed phase.
* ``warm`` runs the workload's command once more against the stores the
  cold phase left.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import spec  # noqa: E402


def _rusage_cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _job_record(identity: dict, result, trace_uops: int) -> dict:
    """What run.py checks and aggregates for one finished job."""
    from repro.stats import SimResult
    if isinstance(result, SimResult):
        record = {
            "fingerprint": result.fingerprint(),
            "cycles": result.cycles,
            "retired_uops": result.retired_uops,
            "full_window_stall_cycles": result.full_window_stall_cycles,
            "dram_reads": dict(result.dram_reads),
            "dram_writes": dict(result.dram_writes),
        }
        for key in ("idle_skipped_cycles", "llc_miss_loads",
                    "branch_mispredicts"):
            record[key] = result.counters[key]
    else:
        blob = json.dumps(result, sort_keys=True).encode()
        record = {"fingerprint": hashlib.sha256(blob).hexdigest()}
    record["label"] = spec.job_label(
        identity["kind"], identity["benchmark"], identity["mode"],
        identity["scale"], identity["seed"], identity["config"])
    record["benchmark"] = identity["benchmark"]
    record["kind"] = identity["kind"]
    record["mode"] = identity["mode"]
    record["trace_uops"] = trace_uops
    return record


def _cached_jobs() -> list:
    """Every job in the private result cache, decoded (after a phase)."""
    from repro.harness.engine import JOB_KINDS, ResultCache
    from repro.harness.runner import load_workload
    records = []
    for path in ResultCache().entries():
        document = json.loads(path.read_text())
        identity = document["job"]
        result = JOB_KINDS[identity["kind"]].decode(document["payload"])
        trace = load_workload(identity["benchmark"],
                              float(identity["scale"]),
                              identity["seed"]).trace()
        records.append(_job_record(identity, result, len(trace)))
    return sorted(records, key=lambda record: record["label"])


def _provenance() -> dict:
    from repro.engine_select import engine_variant
    from repro.harness.engine import code_salt
    return {"code_salt": code_salt(), "engine": engine_variant(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def _run_cli(args: list, log: pathlib.Path) -> int:
    from repro.cli import main
    with open(log, "w") as handle, contextlib.redirect_stdout(handle), \
            contextlib.redirect_stderr(handle):
        return main(args)


def run_phase(task: dict) -> dict:
    workload = task["workload"]
    shape = spec.WORKLOADS[workload]
    seed = task["kernel_seed"]
    work = pathlib.Path(task["dir"])
    tracer = None
    import repro.cli  # noqa: F401  (the whole package, as the CLI loads it)
    imported = time.perf_counter()
    if task["trace"]:
        import spans
        tracer = spans.Tracer(work)
        spans.install(tracer)
    out: dict = {"import_s": imported - PROCESS_START}

    if task["phase"] == "setup":
        from repro.harness.runner import load_workload
        out["provenance"] = _provenance()
        for name in shape["store_kernels"]:
            load_workload(name, shape["scale"], seed).trace()
        return out

    cpu = _rusage_cpu()
    start = time.perf_counter()
    args = spec.cli_args(workload, seed, task["baseline"],
                         str(work / "sweep-report.json"),
                         record=task["record"])
    out["exit_code"] = _run_cli(args, work / "cli.log")
    out["log"] = (work / "cli.log").read_text()
    out["wall_s"] = time.perf_counter() - start
    out["cpu_s"] = _rusage_cpu() - cpu

    if tracer is not None:
        main_spans = [span for span in tracer.spans if span["end"]]
        worker_spans = spans.load_spool(work)
        out["layers"] = spans.layer_metrics(
            main_spans, worker_spans, out["wall_s"], shape["workers"])
        out["spans"] = len(main_spans) + len(worker_spans)
    if task["phase"] == "cold":
        out["jobs"] = _cached_jobs()
    if workload == "sweep-parallel":
        report = json.loads((work / "sweep-report.json").read_text())
        out["promoted"] = report["promoted"]
    return out


def main() -> int:
    task = json.loads(pathlib.Path(sys.argv[1]).read_text())
    out = run_phase(task)
    pathlib.Path(task["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
