"""The paper's claims, checked against regenerated results.

One row per shape claim the reproduction must keep: who wins, roughly
by how much, and where the crossovers fall.  ``run`` (docs/RUNNER.md)
evaluates each experiment's rows after printing its table and exits
nonzero when any claim flips.  Claims are checked only at the shipped
presets (``QUICK``/``DEFAULT``/``FULL``) at their base seed.  The slack
constants absorb the synthetic suite's noise at ``QUICK`` scale;
EXPERIMENTS.md lists the deviations from the paper's absolute
numbers.

LCP comparison points follow the LCP baseline of Pekhimenko's thesis
(arXiv:1609.02067), as in §VI-F of the paper.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple

from .report import ExperimentResult


class Claim(NamedTuple):
    claim_id: str
    experiment: str     # a ``RUNNERS`` key of ``python -m repro.analysis``
    paper_ref: str
    check: Callable[[ExperimentResult], bool]


def _rows(result: ExperimentResult) -> Dict[Any, Dict[str, Any]]:
    """Rows keyed by their label (the first column)."""
    label = result.columns[0]
    return {row[label]: row for row in result.rows}


def _value(result: ExperimentResult, quantity: str) -> Any:
    return _rows(result)[quantity]["value"]


def _means(result: ExperimentResult) -> List[float]:
    return list(result.summary.values())


_ALIGNED = "4-bins-aligned (0/8/32/64)"
_PRIOR = "4-bins-prior (0/22/44/64)"
_EIGHT = "8-bins (0/8/16/24/32/40/52/64)"

CLAIMS = (
    Claim("ablation.eight-bins-compress-better", "ablation",
          "§IV-A: 8 line bins compress better than 4 (1.82 vs 1.59)",
          lambda r: _rows(r)[_EIGHT]["ratio"]
          >= _rows(r)[_ALIGNED]["ratio"] - 0.02),
    Claim("ablation.aligned-bins-cut-splits", "ablation",
          "§IV-A: alignment-friendly bins cut split accesses "
          "30.9% -> 3.2%",
          lambda r: _rows(r)[_ALIGNED]["split_fraction"]
          < _rows(r)[_PRIOR]["split_fraction"]),

    Claim("fig10.compresso-cycle-above-lcp", "fig10",
          "Fig. 10: cycle geomean Compresso 0.998 > LCP 0.938",
          lambda r: r.summary["compresso cycle geomean"]
          > r.summary["lcp cycle geomean"]),
    Claim("fig10.compresso-capacity-above-lcp", "fig10",
          "Fig. 10: capacity mean at 70% Compresso 1.29 >= LCP 1.11",
          lambda r: r.summary["compresso capacity mean"]
          >= r.summary["lcp capacity mean"] - 0.02),
    Claim("fig10.compresso-capacity-below-unconstrained", "fig10",
          "Fig. 10: capacity mean Compresso 1.29 <= unconstrained 1.39",
          lambda r: r.summary["compresso capacity mean"]
          <= r.summary["unconstrained capacity mean"] + 0.02),
    Claim("fig10.compresso-overall-above-lcp", "fig10",
          "Fig. 10: overall geomean Compresso 1.28 > LCP 1.03",
          lambda r: r.summary["compresso overall geomean"]
          > r.summary["lcp overall geomean"]),

    Claim("fig11.compresso-cycle-above-lcp", "fig11",
          "Fig. 11: 4-core cycle geomean Compresso 0.975 > LCP 0.90",
          lambda r: r.summary["compresso cycle geomean"]
          > r.summary["lcp cycle geomean"]),
    Claim("fig11.compresso-overall-above-lcp", "fig11",
          "Fig. 11: 4-core overall geomean Compresso 2.27 > LCP 1.78",
          lambda r: r.summary["compresso overall geomean"]
          > r.summary["lcp overall geomean"]),
    Claim("fig11.compresso-capacity-below-unconstrained", "fig11",
          "Fig. 11: 4-core capacity Compresso 2.33 <= unconstrained 2.51",
          lambda r: r.summary["compresso capacity mean"]
          <= r.summary["unconstrained capacity mean"] + 0.02),

    Claim("fig12.compresso-dram-below-lcp", "fig12",
          "Fig. 12: Compresso saves more DRAM energy than LCP (-11%)",
          lambda r: r.summary["compresso:dram mean"]
          < r.summary["lcp:dram mean"]),
    Claim("fig12.compresso-core-near-uncompressed", "fig12",
          "Fig. 12: Compresso core energy equals the uncompressed system's",
          lambda r: 0.8 < r.summary["compresso:core mean"] < 1.3),

    Claim("fig2.linepack-beats-lcp-with-bpc", "fig2",
          "Fig. 2: LCP packing loses ~13% of BPC's ratio",
          lambda r: r.summary["bpc+linepack mean"]
          >= r.summary["bpc+lcp mean"]),
    Claim("fig2.bpc-beats-bdi-with-linepack", "fig2",
          "Fig. 2: BPC+LinePack is the best combination",
          lambda r: r.summary["bpc+linepack mean"]
          > r.summary["bdi+linepack mean"]),
    Claim("fig2.bpc-linepack-ratio-band", "fig2",
          "Fig. 2: BPC+LinePack averages 1.85x",
          lambda r: 1.4 < r.summary["bpc+linepack mean"] < 3.0),

    Claim("fig4.fixed-extra-material", "fig4",
          "Fig. 4: 63% additional accesses on average",
          lambda r: r.summary["fixed mean extra"] > 0.25),
    Claim("fig4.max-extra-material", "fig4",
          "Fig. 4: up to 180% additional accesses",
          lambda r: r.summary["max extra"] > 0.8),

    Claim("fig6.ladder-cuts-extra-accesses", "fig6",
          "Fig. 6: optimizations cut extra accesses 63% -> 15%",
          lambda r: _means(r)[-1] < _means(r)[0] * 0.8),
    Claim("fig6.alignment-step-helps", "fig6",
          "Fig. 6: alignment is the first and biggest step (63% -> 36%)",
          lambda r: _means(r)[1] < _means(r)[0]),

    Claim("fig7.repacking-recovers-ratio", "fig7",
          "Fig. 7: 24% of storage benefit squandered without repacking",
          lambda r: r.summary["mean relative ratio (no repack / repack)"]
          < 0.995),

    Claim("fig9.compresspoint-total-error", "fig9",
          "Fig. 9: CompressPoints track compressibility better than "
          "SimPoints",
          lambda r: sum(row["compresspoint_err"] for row in r.rows)
          <= sum(row["simpoint_err"] for row in r.rows) + 0.02),
    Claim("fig9.compresspoint-wins-where-simpoint-misses", "fig9",
          "Fig. 9: SimPoints misrepresent phase-heavy benchmarks "
          "(GemsFDTD ~1-13x)",
          lambda r: all(row["compresspoint_err"] < row["simpoint_err"]
                        for row in r.rows if row["simpoint_err"] > 0.05)),

    Claim("sec7.bpc-power", "sec7",
          "§VII-C: BPC <0.4% of channel power",
          lambda r: _value(r, "bpc_vs_channel_power") < 0.004 + 1e-9),
    Claim("sec7.metadata-access-energy", "sec7",
          "§VII-D: metadata cache access <0.8% of a DRAM read",
          lambda r: _value(r, "metadata_vs_dram_read") < 0.008 + 1e-9),
    Claim("sec7.adder-gates", "sec7",
          "§VII-E: offset adder <1.5K NAND gates",
          lambda r: _value(r, "adder_nand_gates") < 1500),
    Claim("sec7.adder-gate-delays", "sec7",
          "§VII-E: offset adder 38 -> 32 gate delays",
          lambda r: _value(r, "adder_gate_delays_optimized") <= 32),
    Claim("sec7.adder-visible-cycles", "sec7",
          "§VII-E: one visible cycle at DDR4-2666",
          lambda r: _value(r, "adder_visible_cycles") == 1),

    Claim("tab2.compresso-monotone-60-70", "tab2",
          "Tab. II: Compresso 1.56 at 60% >= 1.29 at 70%",
          lambda r: _rows(r)["60%"]["compresso"]
          >= _rows(r)["70%"]["compresso"] - 0.05),
    Claim("tab2.compresso-monotone-70-80", "tab2",
          "Tab. II: Compresso 1.29 at 70% >= 1.15 at 80%",
          lambda r: _rows(r)["70%"]["compresso"]
          >= _rows(r)["80%"]["compresso"] - 0.05),
    Claim("tab2.compresso-above-lcp", "tab2",
          "Tab. II: Compresso beats LCP at every budget",
          lambda r: all(row["compresso"] >= row["lcp"] - 0.03
                        for row in r.rows)),
    Claim("tab2.compresso-below-unconstrained", "tab2",
          "Tab. II: Compresso stays below unconstrained at every budget",
          lambda r: all(row["compresso"] <= row["unconstrained"] + 0.02
                        for row in r.rows)),
)


def check_claims(experiment: str, result: ExperimentResult
                 ) -> List[str]:
    """Print the experiment's verdict lines; return the flipped ids.

    Experiments without claims (the robustness sweeps) print nothing.
    """
    claims = [claim for claim in CLAIMS if claim.experiment == experiment]
    if not claims:
        return []
    flipped = [claim for claim in claims if not claim.check(result)]
    print(f"claims: {len(claims) - len(flipped)}/{len(claims)} hold")
    for claim in flipped:
        print(f"claim flipped: {claim.claim_id} — {claim.paper_ref}")
    return [claim.claim_id for claim in flipped]
