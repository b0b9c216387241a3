"""Cross-run results index, statistics and the regression gate.

The runner's append-only ``runs.jsonl`` journal records everything
but answers nothing.  This package makes the history queryable and
lets two runs be compared with statistical rigor:

* :mod:`repro.results.index` — ``ResultsIndex``, a SQLite database
  (``results_index.sqlite``; tables ``runs``, ``units``, ``metrics``)
  with an idempotent journal ingester;
* :mod:`repro.results.stats` — dependency-free sample statistics and
  a permutation significance test sized for a handful of seeds;
* :mod:`repro.results.compare` — per-(unit, metric) verdicts with
  good-direction gating, the heart of
  ``python -m repro.analysis compare``;
* :mod:`repro.results.cli` — the ``index`` and ``compare``
  subcommands.

Schema, ingest rules and the compare workflow are documented in
``docs/RESULTS.md``.
"""

from .compare import (
    Comparison,
    METRIC_DIRECTIONS,
    MetricVerdict,
    compare_runs,
    metric_direction,
    render_comparison,
)
from .index import DEFAULT_DB_PATH, NO_SEED, ResultsIndex, flatten_metrics
from .stats import (
    Significance,
    mean,
    min_achievable_p,
    permutation_test,
    significance,
    stddev,
)

__all__ = [
    "Comparison",
    "DEFAULT_DB_PATH",
    "METRIC_DIRECTIONS",
    "MetricVerdict",
    "NO_SEED",
    "ResultsIndex",
    "Significance",
    "compare_runs",
    "flatten_metrics",
    "mean",
    "metric_direction",
    "min_achievable_p",
    "permutation_test",
    "render_comparison",
    "significance",
    "stddev",
]
