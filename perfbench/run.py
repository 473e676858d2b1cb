"""Benchmark runner: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload figures-quick --seed 0 \\
        --seconds 40 --trace 0

Run from the root of a checkout.  Every phase runs in a fresh
interpreter (perfbench/phase.py) under a private ``REPRO_CACHE_DIR``
and working directory below ``.perfbench/work``, so no run reads the
user's cache or writes a tracked file.  ``--trace 0`` repeats the
cold phase, each followed by warm invocations, for ``--seconds`` and
prints the end-to-end metrics of BENCHMARK.json as medians, in seconds
of the reference host (see ``Probe``); ``--trace 1`` runs the
cold phase untraced and then with layer spans and prints the per-layer
metrics.  The last stdout line is the JSON result; the lines before it
list every metric with its unit.  The exit code is 1 when any checked
operation failed, 2 when the checkout has no program to measure.

``--record`` rewrites the references of the selected kernel seed (do
this only for a deliberate model change); ``--corrupt-reference``
checks against a deliberately wrong reference to show that the gate
fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import spec

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"
#: Hard limit of one run; every child gets what is left of it.
RUN_LIMIT_S = 170.0
SETUPS_TIMED = 3
#: Cold phases per timed run, at least.
MIN_COLD = 2
#: Warm invocations after each cold phase: at least this many, and for
#: at least WARM_SHARE of that cold phase's wall time.
MIN_WARM_PER_COLD = 3
WARM_SHARE = 0.4
#: The CPU probe: a loop of PROBE_LOOP iterations, timed in CPU seconds
#: every PROBE_PERIOD_S all through a run (about 4% of one CPU).
PROBE_LOOP = 10_000
PROBE_PERIOD_S = 0.025
#: The start-up probe, timed before every phase: a fresh interpreter
#: that imports these standard-library modules.
STARTUP_PROBE = ("import argparse, asyncio, dataclasses, decimal, "
                 "email.message, json, typing")
#: Seconds of one CPU probe loop and of one start-up probe on the
#: reference host, a 2-vCPU Intel Xeon VM at 2.0 GHz running Python
#: 3.11.7 (typical medians there).
PROBE_REF_S = 0.001
STARTUP_REF_S = 0.17
#: Fig. 13 geomean uplifts the paper reports, in percent.
PAPER_CDF_UPLIFT = 6.1
PAPER_PRE_UPLIFT = 2.6
CLAIMS_MATCH = "all claims match the pinned baseline"


class Run:
    """Measurements, checks and scratch space of one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.shape = spec.WORKLOADS[workload]
        self.kernel_seed = spec.kernel_seed(seed)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = ROOT / ".perfbench" / "work" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.phases = 0
        # A one-worker workload runs on one CPU, with the CPU probe; a
        # pool runs on all of them, and the probe takes them in turn.
        allowed = sorted(os.sched_getaffinity(0))
        self.cpus = allowed[:1] if self.shape["workers"] == 1 else allowed
        self.probe = Probe(self.cpus)
        self.startups: list = []

    # ------------------------------------------------------------ checks
    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    # --------------------------------------------------------- processes
    def env(self, cache: pathlib.Path) -> dict:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_") or key == "REPRO_ENGINE"}
        tmp = self.work / "tmp"
        tmp.mkdir(exist_ok=True)
        env.update({
            "PYTHONPATH": os.pathsep.join(
                [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                       if env.get("PYTHONPATH") else [])),
            "REPRO_CACHE_DIR": str(cache),
            "XDG_CACHE_HOME": str(tmp),
            "TMPDIR": str(tmp),
            "REPRO_JOBS": str(self.shape["workers"]),
        })
        return env

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def spawn(self, argv: list, cache: pathlib.Path):
        """Run *argv* to completion in its own process group; on timeout
        kill the whole group (pool workers included).  Returns the
        CompletedProcess, or None on timeout."""
        child = subprocess.Popen(
            argv, cwd=self.cwd(), env=self.env(cache), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True)
        try:
            stdout, stderr = child.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            self.problems.append(f"timed out: {' '.join(argv[1:3])}")
            return None
        return subprocess.CompletedProcess(argv, child.returncode,
                                           stdout, stderr)

    def phase(self, phase: str, cache: pathlib.Path, traced: bool = False,
              baseline: str = "", record: bool = False):
        """Run one phase child, after a start-up probe; returns (its
        output or None, its sample for :meth:`scaled`)."""
        self.phases += 1
        directory = self.work / f"phase{self.phases}-{phase}"
        directory.mkdir()
        task = {"workload": self.workload, "phase": phase,
                "kernel_seed": self.kernel_seed, "trace": traced,
                "dir": str(directory), "out": str(directory / "out.json"),
                "baseline": baseline, "record": record}
        (directory / "task.json").write_text(json.dumps(task))
        self.startup_probe()
        start = time.monotonic()
        done = self.spawn([sys.executable, str(HERE / "phase.py"),
                           str(directory / "task.json")], cache)
        end = time.monotonic()
        sample = {"seconds": end - start,
                  "cpu_factor": self.probe.factor(start, end),
                  "startup_probe": len(self.startups) - 1}
        if done is None:
            return None, sample
        if done.returncode != 0:
            last = (done.stderr.strip().splitlines() or [""])[-1]
            self.problems.append(
                f"{phase} phase exited {done.returncode}: {last}")
            return None, sample
        return json.loads((directory / "out.json").read_text()), sample

    def cwd(self) -> pathlib.Path:
        cwd = self.work / "cwd"
        cwd.mkdir(exist_ok=True)
        return cwd

    # ------------------------------------------------------------ probes
    def startup_probe(self) -> None:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", STARTUP_PROBE],
                       cwd=self.cwd(), check=True,
                       timeout=self.remaining())
        self.startups.append(time.perf_counter() - start)

    def scaled(self, sample: dict) -> float:
        """A short phase's seconds, as seen from here, in seconds of the
        reference host, by the start-up probes right before and after
        it.  (A cold phase is scaled by its ``cpu_factor`` instead.)"""
        index = sample["startup_probe"]
        around = self.startups[index:index + 2]
        return sample["seconds"] * STARTUP_REF_S / statistics.fmean(around)


# --------------------------------------------------------------- helpers
class Probe(threading.Thread):
    """CPU probe: a fixed pure-Python loop, timed in CPU seconds every
    PROBE_PERIOD_S from a thread of this process while the measured
    children run, on each of *cpus* in turn.  It runs no code of the
    program, so no change to the program moves it.

    The speed of a shared VM moves in regimes lasting seconds to
    minutes, by up to 1.7x, and separately on each vCPU; CPU time moves
    with wall time (it is not CPU steal).  A cold phase's time
    multiplied by :meth:`factor` over its own interval, with the probe
    on the CPUs the phase runs on, is in seconds of the reference host,
    so a regime that slows the probe and the program alike cancels out.
    """

    def __init__(self, cpus: list):
        super().__init__(daemon=True)
        self.cpus = cpus
        self.samples: list = []  # (monotonic end, CPU seconds)
        self.stopped = threading.Event()

    def run(self) -> None:
        turn = 0
        while not self.stopped.wait(PROBE_PERIOD_S):
            os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})
            turn += 1
            start = time.thread_time()
            total = 0
            for index in range(PROBE_LOOP):
                total += index * index & 0xFF
            self.samples.append((time.monotonic(),
                                 time.thread_time() - start))

    def stop(self) -> None:
        self.stopped.set()
        self.join()

    def median(self, start: float = -math.inf,
               end: float = math.inf) -> float:
        """Median probe CPU seconds between *start* and *end* (the whole
        run when there were none in between)."""
        within = [cpu for at, cpu in self.samples if start <= at <= end]
        return statistics.median(within or
                                 [cpu for _, cpu in self.samples] or
                                 [PROBE_REF_S])

    def factor(self, start: float, end: float) -> float:
        return PROBE_REF_S / self.median(start, end)


def reference_path(workload: str, kernel_seed: int) -> pathlib.Path:
    return REFS / f"{workload}-seed{kernel_seed}.json"


def figures_baseline(kernel_seed: int) -> pathlib.Path:
    if kernel_seed == spec.DEFAULT_SEED:
        return ROOT / "benchmarks" / "figures_baseline.json"
    return REFS / f"figures-quick-seed{kernel_seed}.baseline.json"


def simulated(jobs: list) -> dict:
    """Simulated statistics of a phase's jobs (must repeat exactly)."""
    sims = [job for job in jobs if job["kind"] == "sim"]
    cycles = sum(job["cycles"] for job in sims)
    retired = sum(job["retired_uops"] for job in sims)
    reads = sum(sum(job["dram_reads"].values()) for job in sims)
    per_kilo = 1000.0 / retired
    return {
        "core.ipc_geomean": math.exp(statistics.fmean(
            math.log(job["retired_uops"] / job["cycles"]) for job in sims)),
        "core.idle_skipped_frac": sum(
            job["idle_skipped_cycles"] for job in sims) / cycles,
        "core.full_window_stall_frac": sum(
            job["full_window_stall_cycles"] for job in sims) / cycles,
        "memory.llc_mpki": sum(job["llc_miss_loads"] for job in sims)
        * per_kilo,
        "memory.dram_reads_pku": reads * per_kilo,
        "memory.dram_writebacks": float(sum(
            sum(job["dram_writes"].values()) for job in sims)),
        "memory.prefetch_frac": sum(
            job["dram_reads"].get("prefetch", 0) for job in sims) / reads,
        "frontend.branch_mpki": sum(
            job["branch_mispredicts"] for job in sims) * per_kilo,
    }


def reference_of(cold: dict) -> dict:
    reference = {
        "jobs": {job["label"]: {"fingerprint": job["fingerprint"],
                                "cycles": job.get("cycles")}
                 for job in cold["jobs"]},
        "simulated": simulated(cold["jobs"]),
    }
    if "promoted" in cold:
        reference["promoted"] = cold["promoted"]
    return reference


def corrupt(reference: dict) -> dict:
    """A copy of *reference* with one fingerprint flipped."""
    reference = json.loads(json.dumps(reference))
    label = sorted(reference["jobs"])[0]
    fingerprint = reference["jobs"][label]["fingerprint"]
    reference["jobs"][label]["fingerprint"] = \
        ("0" if fingerprint[0] != "0" else "1") + fingerprint[1:]
    return reference


def corrupt_baseline(source: pathlib.Path, target: pathlib.Path) -> str:
    """Copy a pinned claims baseline with one claim value moved."""
    baseline = json.loads(source.read_text())
    claim = next(claim for claim in baseline["claims"].values()
                 if claim["value"] is not None)
    claim["value"] += 1.0
    target.write_text(json.dumps(baseline))
    return str(target)


def check_cold(run: Run, cold: dict, reference: dict, label: str) -> None:
    """Every job's fingerprint, the promoted set and the simulated
    statistics against the reference, and the command's own check."""
    seen = {job["label"]: job for job in cold["jobs"]}
    for name, expected in sorted(reference["jobs"].items()):
        got = seen.get(name)
        run.check(got is not None and
                  got["fingerprint"] == expected["fingerprint"],
                  f"{label}: job {name} fingerprint differs")
    for name in sorted(set(seen) - set(reference["jobs"])):
        run.check(False, f"{label}: unexpected job {name}")
    if "promoted" in reference:
        run.check(cold.get("promoted") == reference["promoted"],
                  f"{label}: promoted {cold.get('promoted')} != "
                  f"{reference['promoted']}")
    run.check(simulated(cold["jobs"]) == reference["simulated"],
              f"{label}: simulated statistics differ from the reference")
    run.check(command_ok(run, cold["exit_code"], cold["log"]),
              f"{label}: command exited {cold['exit_code']}")


def command_ok(run: Run, exit_code: int, output: str) -> bool:
    """figures exits 1 when a claim diverges from the paper, which a
    pinned baseline may record; only a drift from it is a failure."""
    if run.workload == "figures-quick":
        return exit_code in (0, 1) and CLAIMS_MATCH in output
    return exit_code == 0


def check_warm(run: Run, warm, reference: dict) -> bool:
    return warm is not None and \
        command_ok(run, warm["exit_code"], warm["log"]) and \
        warm.get("promoted") == reference.get("promoted")


def high_percentile(samples: list):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def uplift_errors(run: Run) -> dict:
    """|Fig. 13 uplift - paper| in percentage points, from the claims
    (figures-quick only; sweep-parallel runs no PRE)."""
    if run.workload != "figures-quick":
        return {}
    claims = json.loads(figures_baseline(run.kernel_seed)
                        .read_text())["claims"]
    return {"cdf_uplift_err_pp": abs(
                claims["fig13-cdf-uplift"]["value"] - PAPER_CDF_UPLIFT),
            "pre_uplift_err_pp": abs(
                claims["fig13-pre-uplift"]["value"] - PAPER_PRE_UPLIFT)}


# ------------------------------------------------------------------ runs
def setups(run: Run, count: int):
    """Fill *count* fresh private stores; keep the first for the timed
    phase.  Returns (its cache dir, the set-ups' samples, provenance)."""
    samples = []
    provenance = None
    kept = None
    for index in range(count):
        cache = run.work / f"cache{index}"
        out, sample = run.phase("setup", cache)
        if not run.check(out is not None, f"setup {index} failed"):
            return None, samples, provenance
        samples.append(sample)
        provenance = out["provenance"]
        if kept is None:
            kept = cache
        else:
            shutil.rmtree(cache, ignore_errors=True)
    return kept, samples, provenance


def fresh_cache(run: Run, store: pathlib.Path, name: str) -> pathlib.Path:
    """A private cache dir with *store*'s traces (none for
    figures-quick) and no results."""
    cache = run.work / name
    cache.mkdir()
    if (store / "traces").is_dir():
        shutil.copytree(store / "traces", cache / "traces")
    return cache


def measure(args, run: Run, report: dict) -> dict:
    """Timed run (``--trace 0``): returns the end-to-end metrics."""
    reference = json.loads(reference_path(
        run.workload, run.kernel_seed).read_text()) if not args.record \
        else None
    baseline = figures_baseline(run.kernel_seed)
    if args.corrupt_reference:
        reference = corrupt(reference)
        baseline = pathlib.Path(corrupt_baseline(
            baseline, run.work / "corrupt-baseline.json"))
    store, setup_samples, report["provenance"] = setups(
        run, 1 if args.record else SETUPS_TIMED)
    if store is None:
        return {}
    record = args.record and run.kernel_seed != spec.DEFAULT_SEED
    colds, warms = [], []  # (phase output, sample)
    start = time.monotonic()
    while True:
        # Each cold phase starts from a fresh result cache; its warm
        # invocations then run against the cache it left.
        rep_start = time.monotonic()
        cache = fresh_cache(run, store, f"rep{len(colds)}")
        cold, sample = run.phase("cold", cache, baseline=str(baseline),
                                 record=record)
        if not run.check(cold is not None, "cold phase failed"):
            return {}
        if args.record:
            REFS.mkdir(exist_ok=True)
            reference = reference_of(cold)
            reference_path(run.workload, run.kernel_seed).write_text(
                json.dumps(reference, indent=1, sort_keys=True) + "\n")
            record = False
        else:
            check_cold(run, cold, reference, f"cold {len(colds)}")
        colds.append((cold, sample))
        warm_until = time.monotonic() + WARM_SHARE * cold["wall_s"]
        for attempt in range(10_000):
            if attempt >= MIN_WARM_PER_COLD and \
                    time.monotonic() >= warm_until:
                break
            warm, sample = run.phase("warm", cache, baseline=str(baseline))
            if run.check(check_warm(run, warm, reference),
                         f"warm invocation {attempt} after cold "
                         f"{len(colds) - 1} failed"):
                warms.append(sample)
        shutil.rmtree(cache, ignore_errors=True)
        took = time.monotonic() - rep_start
        left = start + args.seconds - time.monotonic()
        if len(colds) >= MIN_COLD and left < took / 2 or \
                time.monotonic() + took > run.deadline:
            break
    run.startup_probe()  # the probe after the last warm invocation

    def median(values):
        return statistics.median(list(values))

    wall = median(cold["wall_s"] * sample["cpu_factor"]
                  for cold, sample in colds)
    warm = [run.scaled(sample) for sample in warms]
    first = colds[0][0]
    executed = sum(job["trace_uops"] for job in first["jobs"])
    points = run.shape.get("points", len(first["jobs"]))
    rss = max(resource.getrusage(who).ru_maxrss for who in
              (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    report.update({
        "setup_samples": setup_samples,
        "cold_samples": [dict(sample, wall_s=cold["wall_s"],
                              cpu_s=cold["cpu_s"])
                         for cold, sample in colds],
        "warm_samples": warms,
        "warm_high_percentile": high_percentile(warm),
        "uplift_errors_pp": uplift_errors(run),
        "simulated": simulated(first["jobs"]),
        "import_s": first["import_s"],
    })
    if not warm:
        return {}
    return {
        "setup_s": median(map(run.scaled, setup_samples)),
        "wall_s": wall,
        "cpu_s": median(cold["cpu_s"] * sample["cpu_factor"]
                        for cold, sample in colds),
        "sim_kips": executed / wall / 1000.0,
        "peak_rss_mb": rss / 1024.0,
        "warm_p50_s": median(warm),
        "sweep_points_per_s": points / wall,
    }


def traced(args, run: Run, report: dict) -> dict:
    """Per-layer run (``--trace 1``): the timed phase untraced, then
    traced, then one traced warm invocation."""
    reference = json.loads(reference_path(
        run.workload, run.kernel_seed).read_text())
    baseline = str(figures_baseline(run.kernel_seed))
    store, setup_samples, report["provenance"] = setups(run, 1)
    if store is None:
        return {}
    # Which phase runs first alternates with the seed, so that a drift
    # in host speed between the two does not read as tracing overhead.
    order = ("plain", "traced") if args.seed % 2 == 0 else ("traced", "plain")
    cold = {}
    for name in order:
        cold[name], _ = run.phase(
            "cold", fresh_cache(run, store, name), traced=name == "traced",
            baseline=baseline)
    plain, spanned = cold["plain"], cold["traced"]
    warm, _ = run.phase("warm", run.work / "traced", traced=True,
                        baseline=baseline)
    for label, out in (("untraced", plain), ("traced", spanned)):
        if run.check(out is not None, f"{label} cold phase failed"):
            check_cold(run, out, reference, label)
    if plain is None or spanned is None or \
            not run.check(warm is not None and command_ok(
                run, warm["exit_code"], warm["log"]),
                "traced warm invocation failed"):
        return {}
    run.check(simulated(plain["jobs"]) == simulated(spanned["jobs"]),
              "simulated statistics differ between untraced and traced")
    metrics = dict(spanned["layers"])
    metrics.update(simulated(spanned["jobs"]))
    metrics["analytic.promoted_frac"] = (
        len(spanned["promoted"]) / len(spec.SWEEP_VALUES)
        if "promoted" in spanned else 0.0)
    metrics["host.import_s"] = spanned["import_s"]
    metrics["trace.overhead_frac"] = spanned["wall_s"] / plain["wall_s"] - 1
    for key in ("engine.cache_get_s", "engine.self_s", "figures.self_s",
                "traceio.decode_s", "analytic.profile_s",
                "trace.unattributed_s"):
        metrics[f"warm.{key}"] = warm["layers"][key]
    metrics["warm.wall_s"] = warm["wall_s"]
    metrics["warm.import_s"] = warm["import_s"]
    report["setup_samples"] = setup_samples
    report["spans"] = spanned["spans"]
    report["untraced_wall_s"] = plain["wall_s"]
    report["traced_wall_s"] = spanned["wall_s"]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite this kernel seed's references")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="check against a wrong reference (must fail)")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or \
            not (ROOT / "benchmarks" / "figures_baseline.json").is_file():
        print(f"no repro package under {ROOT}: run from a checkout",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    report = {"workload": args.workload, "seed": args.seed,
              "kernel_seed": run.kernel_seed, "trace": args.trace,
              "seconds": args.seconds}
    # Children inherit this thread's CPUs.
    os.sched_setaffinity(0, run.cpus)
    run.probe.start()
    try:
        metrics = traced(args, run, report) if args.trace \
            else measure(args, run, report)
    finally:
        run.probe.stop()
        shutil.rmtree(run.work, ignore_errors=True)
    report["host.calib_s"] = run.probe.median()
    report["probe_samples"] = run.probe.samples
    report["startup_probes_s"] = run.startups
    if args.trace and metrics:
        metrics["host.calib_s"] = report["host.calib_s"]
    report["problems"] = run.problems

    # BENCHMARK.json names the metrics of each kind and their units.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if metrics:
        metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    fail_frac = run.failed / max(1, run.attempted)
    print(f"{'fail_frac':34s} {fail_frac:14.6g} ratio "
          f"({run.failed} of {run.attempted} checked operations)")
    if not args.trace:
        print(f"{'warm samples':34s} {len(report.get('warm_samples', []))}"
              f" (highest percentile with 10 beyond: "
              f"{report.get('warm_high_percentile')})")
        for name, value in sorted(report.get("uplift_errors_pp",
                                             {}).items()):
            print(f"{name:34s} {value:14.6g} pp")
        print(f"{'host.calib_s':34s} {report['host.calib_s']:14.6g} s "
              f"(median of {len(run.probe.samples)} probes; each time "
              f"above is scaled by {PROBE_REF_S} s / the median over "
              f"its own interval)")
    print(f"provenance: kernel seed {run.kernel_seed}, "
          f"{json.dumps(report.get('provenance'))}")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    reports = ROOT / ".perfbench" / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    report["metrics"] = metrics
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
