"""The benchmark workloads, shared by run.py and phase.py.

Why each workload exists is recorded in perfbench/README.md.
"""

from __future__ import annotations

#: The kernel seed the repository's results are pinned at.
DEFAULT_SEED = 42
#: Kernel seeds with recorded references.  ``--seed n`` picks ``n``
#: itself when it is listed here, else ``KERNEL_SEEDS[n % 4]``; every
#: seed but the default is held out from the repository's own pins.
KERNEL_SEEDS = (42, 1, 2, 3)

SWEEP_VALUES = ("1", "2", "4", "8", "16")
SWEEP_NAMES = ("astar", "mcf", "lbm")
SWEEP_MODES = ("baseline", "cdf")

WORKLOADS = {
    "figures-quick": {
        "workers": 1,
        # Starts from an empty result cache and an empty trace store.
        "store_kernels": (),
    },
    "sweep-parallel": {
        "workers": 2,
        "store_kernels": SWEEP_NAMES,
        "scale": 1.0,
        # Sweep points decided per run: values x modes x kernels.
        "points": len(SWEEP_VALUES) * len(SWEEP_MODES) * len(SWEEP_NAMES),
    },
}


def job_label(kind: str, benchmark: str, mode: str, scale: str, seed: int,
              config) -> str:
    """How references name a job: its identity without the code salt
    (``scale`` as ``repr(float)``, ``config`` a fingerprint or None)."""
    return "/".join((kind, benchmark, mode, scale, str(seed),
                     (config or "default")[:12]))


def kernel_seed(seed: int) -> int:
    """The kernel seed a benchmark ``--seed`` selects."""
    return seed if seed in KERNEL_SEEDS else KERNEL_SEEDS[seed % len(
        KERNEL_SEEDS)]


def cli_args(workload: str, seed: int, baseline: str, out: str,
             record: bool = False) -> list:
    """``repro-sim`` arguments of a workload's command, the same cold
    and warm.  ``record`` pins the claims baseline instead of checking
    it."""
    if workload == "figures-quick":
        check = "--write-baseline" if record else "--check-baseline"
        return ["figures", "--quick", check, "--no-bench",
                "--seed", str(seed), "--baseline", baseline]
    assert workload == "sweep-parallel", workload
    return ["sweep", "--knob", "mshrs", "--screen",
            "--values", *SWEEP_VALUES, "--scale", "1.0",
            "--benchmarks", *SWEEP_NAMES, "--modes", *SWEEP_MODES,
            "--seed", str(seed), "--out", out]
