"""Cross-run metric comparison and the regression gate.

``python -m repro.analysis compare RUN_A RUN_B`` (docs/RESULTS.md)
pulls every metric both runs share out of the results index, groups
the samples per (unit, metric) across seeds, and asks
:mod:`repro.results.stats` whether the candidate run B moved each
headline metric in the *bad* direction by a statistically significant
margin.  Only metrics with a known good direction
(:data:`METRIC_DIRECTIONS`) can gate; everything else is reported
informationally.  Single-seed runs cannot witness noise, so they fall
back to a pure relative-threshold verdict (``test="threshold"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .index import ResultsIndex
from .stats import Significance, min_achievable_p, significance

#: Default significance level for the permutation test.
DEFAULT_ALPHA = 0.05

#: Minimum relative change (vs. the baseline mean) for a significant
#: move to count as a regression — guards against statistically
#: significant but practically irrelevant drift.
DEFAULT_MIN_EFFECT = 0.01

#: Relative change that flags a regression when significance cannot
#: be assessed at all — either side has a single sample, or the
#: permutation-space floor (``stats.min_achievable_p``) sits above
#: alpha, making the test powerless at that seed count.
DEFAULT_SINGLE_SAMPLE_EFFECT = 0.10

#: metric name (or dotted prefix) -> good direction.  ``higher`` means
#: a significant decrease is a regression; ``lower`` the reverse.
#: Matching is by exact name first, then by longest dotted prefix, so
#: ``timeline.extra_accesses`` gates via the ``extra_accesses`` entry
#: only through its own explicit row below.
METRIC_DIRECTIONS: Dict[str, str] = {
    "compression_ratio": "higher",
    "metadata_hit_rate": "higher",
    "extra_accesses": "lower",
    "relative_extra_accesses": "lower",
    "timeline.extra_accesses": "lower",
    "sanitizer.violations": "lower",
}


def metric_direction(metric: str) -> Optional[str]:
    """``"higher"``/``"lower"`` for gated metrics, else ``None``."""
    if metric in METRIC_DIRECTIONS:
        return METRIC_DIRECTIONS[metric]
    # timeline.by_source.<x> inherits the extra-accesses direction.
    if metric.startswith("timeline.by_source."):
        return "lower"
    return None


@dataclass(frozen=True)
class MetricVerdict:
    """One (unit, metric) cell of a run comparison."""

    unit: str
    metric: str
    #: ``higher``/``lower`` for gated metrics, ``None`` otherwise.
    direction: Optional[str]
    stats: Significance
    #: True when the change moves against ``direction``.
    worsened: bool
    #: Worsened, significant (or past the single-sample threshold) and
    #: past ``min_effect`` — this is what fails the gate.
    regression: bool
    #: Same, but in the *good* direction.
    improvement: bool


@dataclass(frozen=True)
class Comparison:
    """Everything ``compare`` found between two runs."""

    run_a: str
    run_b: str
    verdicts: List[MetricVerdict]
    #: (unit, metric) pairs present in only one of the two runs.
    only_in_a: List[Tuple[str, str]]
    only_in_b: List[Tuple[str, str]]

    @property
    def regressions(self) -> List[MetricVerdict]:
        return [v for v in self.verdicts if v.regression]

    @property
    def improvements(self) -> List[MetricVerdict]:
        return [v for v in self.verdicts if v.improvement]


def _judge(unit: str, metric: str, a: Sequence[float],
           b: Sequence[float], alpha: float, min_effect: float,
           single_sample_effect: float, seed: int) -> MetricVerdict:
    direction = metric_direction(metric)
    verdict = significance(a, b, alpha=alpha, seed=seed)
    powerless = (verdict.test == "none"
                 or min_achievable_p(verdict.n_a, verdict.n_b) > alpha)
    if powerless and verdict.diff != 0.0:
        # Significance is unattainable at this seed count (one sample,
        # or the permutation floor exceeds alpha) — fall back to a
        # pure relative-threshold check rather than gating nothing.
        meaningful = abs(verdict.relative) >= single_sample_effect \
            if verdict.mean_a else True
        verdict = Significance(
            verdict.n_a, verdict.n_b, verdict.mean_a, verdict.mean_b,
            verdict.diff, verdict.relative, 1.0, "threshold",
            meaningful)
    worsened = bool(direction) and (
        verdict.diff < 0.0 if direction == "higher"
        else verdict.diff > 0.0)
    improved = bool(direction) and verdict.diff != 0.0 and not worsened
    past_effect = (abs(verdict.relative) >= min_effect
                   if verdict.mean_a else verdict.diff != 0.0)
    meaningful = verdict.significant and past_effect
    return MetricVerdict(unit, metric, direction, verdict,
                         worsened, worsened and meaningful,
                         improved and meaningful)


def compare_runs(index: ResultsIndex, run_a: str, run_b: str,
                 metrics: Optional[Sequence[str]] = None,
                 alpha: float = DEFAULT_ALPHA,
                 min_effect: float = DEFAULT_MIN_EFFECT,
                 single_sample_effect: float =
                 DEFAULT_SINGLE_SAMPLE_EFFECT,
                 seed: int = 0) -> Comparison:
    """Compare baseline ``run_a`` against candidate ``run_b``.

    Both arguments may be unambiguous run-id prefixes.  ``metrics``
    restricts the comparison to the named metrics (dotted names as
    indexed); by default every metric the runs share is compared.
    """
    run_a = index.resolve_run(run_a)
    run_b = index.resolve_run(run_b)
    samples_a = index.metric_samples(run_a, metrics)
    samples_b = index.metric_samples(run_b, metrics)
    shared = sorted(set(samples_a) & set(samples_b))
    verdicts = [
        _judge(unit, metric, samples_a[(unit, metric)],
               samples_b[(unit, metric)], alpha, min_effect,
               single_sample_effect, seed)
        for unit, metric in shared
    ]
    return Comparison(
        run_a, run_b, verdicts,
        only_in_a=sorted(set(samples_a) - set(samples_b)),
        only_in_b=sorted(set(samples_b) - set(samples_a)))


def render_comparison(comparison: Comparison,
                      verbose: bool = False) -> str:
    """Human-readable comparison report (one table plus a verdict)."""
    lines = [f"compare {comparison.run_a} (A, baseline) vs "
             f"{comparison.run_b} (B, candidate)"]
    rows = [v for v in comparison.verdicts
            if verbose or v.direction or v.regression or v.improvement]
    if rows:
        lines.append("")
        header = (f"{'unit':<28} {'metric':<28} {'mean A':>12} "
                  f"{'mean B':>12} {'delta%':>8} {'p':>7}  verdict")
        lines.append(header)
        lines.append("-" * len(header))
        for v in rows:
            s = v.stats
            if v.regression:
                verdict = "REGRESSION"
            elif v.improvement:
                verdict = "improved"
            elif v.direction is None:
                verdict = "info"
            elif v.worsened:
                verdict = "worse (n.s.)"
            else:
                verdict = "ok"
            delta = (f"{100.0 * s.relative:+8.2f}" if s.mean_a
                     else f"{s.diff:+8.3g}")
            p_text = ("  --" if s.test in ("none", "threshold")
                      else f"{s.p_value:7.3f}")
            lines.append(f"{v.unit:<28.28} {v.metric:<28.28} "
                         f"{s.mean_a:>12.5g} {s.mean_b:>12.5g} "
                         f"{delta} {p_text:>7}  {verdict} "
                         f"(n={s.n_a}/{s.n_b}, {s.test})")
    for label, missing in (("A", comparison.only_in_a),
                           ("B", comparison.only_in_b)):
        if missing:
            lines.append(f"only in {label}: {len(missing)} metric(s), "
                         f"e.g. {missing[0][0]}/{missing[0][1]}")
    lines.append("")
    lines.append(f"{len(comparison.verdicts)} shared metric(s), "
                 f"{len(comparison.improvements)} improved, "
                 f"{len(comparison.regressions)} regression(s)")
    if comparison.regressions:
        lines.append("VERDICT: REGRESSION — candidate run B is "
                     "significantly worse on a gated metric")
    else:
        lines.append("VERDICT: ok — no significant regression on any "
                     "gated metric")
    return "\n".join(lines)


__all__ = [
    "Comparison",
    "DEFAULT_ALPHA",
    "DEFAULT_MIN_EFFECT",
    "DEFAULT_SINGLE_SAMPLE_EFFECT",
    "METRIC_DIRECTIONS",
    "MetricVerdict",
    "compare_runs",
    "metric_direction",
    "render_comparison",
]
