"""One-shot evaluation report: every figure, one Markdown document.

``build_report`` regenerates the full evaluation (Table 1, Figs. 1 and
13-17, the ablations) at a chosen scale and renders a self-contained
Markdown report with the paper's reference numbers alongside — the
artifact a reviewer would ask for. Exposed on the CLI as
``repro-sim report``.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from .experiments import (
    ablation_critical_branches,
    ablation_partitioning,
    ablation_thresholds,
    fig01_rob_distribution,
    fig13_speedup,
    fig14_mlp,
    fig15_traffic,
    fig16_energy,
    fig17_scaling,
    format_ablation_branches,
    format_ablation_partitioning,
    format_ablation_thresholds,
    format_fig01,
    format_fig13,
    format_fig14,
    format_fig15,
    format_fig16,
    format_fig17,
    table1_text,
)

_HEADER = """# Criticality Driven Fetch — evaluation report

Reproduction of Deshmukh & Patt, MICRO 2021 (DOI 10.1145/3466752.3480115).
Generated by `repro-sim report` at workload scale {scale}.

Paper reference points: CDF +6.1% geomean IPC (PRE +2.6%); CDF traffic
~= baseline with PRE ~4% higher; CDF energy -3.5% (PRE +3.7%); CDF area
+3.2%; removing critical-branch marking drops the geomean to +3.8%.
"""

_SECTIONS = (
    ("Table 1 — configuration", None, lambda scale: table1_text()),
    ("Fig. 1 — ROB during stalls", "fig1",
     lambda scale: format_fig01(fig01_rob_distribution(scale=scale))),
    ("Fig. 13 — speedup", "fig13",
     lambda scale: format_fig13(fig13_speedup(scale=scale))),
    ("Fig. 14 — MLP", "fig14",
     lambda scale: format_fig14(fig14_mlp(scale=scale))),
    ("Fig. 15 — memory traffic", "fig15",
     lambda scale: format_fig15(fig15_traffic(scale=scale))),
    ("Fig. 16 — energy", "fig16",
     lambda scale: format_fig16(fig16_energy(scale=scale))),
    ("Fig. 17 — ROB scaling", "fig17",
     lambda scale: format_fig17(fig17_scaling(
         names=("astar", "milc", "nab", "lbm", "zeusmp", "sphinx"),
         scale=scale))),
    ("Ablation — critical branches", "ablation-branches",
     lambda scale: format_ablation_branches(
         ablation_critical_branches(scale=scale))),
    ("Ablation — partitioning", "ablation-partitioning",
     lambda scale: format_ablation_partitioning(ablation_partitioning(
         names=("astar", "milc", "bzip", "nab", "mcf", "lbm"),
         scale=scale))),
    ("Ablation — CCT thresholds", "ablation-thresholds",
     lambda scale: format_ablation_thresholds(ablation_thresholds(
         names=("astar", "milc", "nab", "bzip", "soplex", "lbm"),
         scale=scale))),
)


def build_report(scale: float = 0.5,
                 only: Optional[Sequence[str]] = None,
                 progress=None) -> str:
    """Render the full evaluation as Markdown; ``only`` filters sections
    by their figure key ('fig13', 'ablation-branches', ...).

    Sections run through the experiment engine, so the report
    parallelizes under ``REPRO_JOBS`` and a warm result cache makes the
    trailing wall-clock line near-zero (see docs/harness.md — the
    timing line measures harness time, not simulation cost, whenever
    cache hits are involved). The ``progress`` callback receives one
    line per section plus a per-section simulated/shared/cached
    breakdown.
    """
    from .engine import get_engine
    engine = get_engine()
    parts = [_HEADER.format(scale=scale)]
    start = time.time()
    for title, key, produce in _SECTIONS:
        if only and key not in only and key is not None:
            continue
        if progress:
            progress(title)
        before_executed = engine.stats.executed
        before_shared = engine.stats.shared
        before_hits = engine.stats.cache_hits
        section_start = time.time()
        parts.append(f"## {title}\n")
        parts.append("```")
        parts.append(produce(scale))
        parts.append("```\n")
        if progress:
            progress(f"    {time.time() - section_start:.1f}s "
                     f"({engine.stats.executed - before_executed} "
                     f"simulated, {engine.stats.shared - before_shared} "
                     f"shared, {engine.stats.cache_hits - before_hits} "
                     "cached)")
    from .engine import code_salt
    parts.append(f"_Report generated in {time.time() - start:.0f}s "
                 f"(code `{code_salt()[:12]}`)._")
    return "\n".join(parts)
