"""The evaluation harness: PR-AUC, rank-at-max-recall, separation, runtimes.

Labels benchmark tables via :attr:`~repro.synthetic.TableSpec.positive`,
scores every registered measure over a benchmark (sharing one
sufficient-statistics computation per table across all measures), and
aggregates the ranking metrics the paper compares measures by (Section
VI-B), with wall-clock runtime statistics on the side (Table V).
"""

from repro.evaluation.harness import EvaluationResult, evaluate_specs
from repro.evaluation.metrics import (
    normalized_rank_at_max_recall,
    pr_auc,
    precision_recall_points,
    rank_at_max_recall,
    ranking_summary,
    runtime_stats,
    separation,
)
from repro.evaluation.scoring import MeasureConfig, TableScore

__all__ = [
    "EvaluationResult",
    "MeasureConfig",
    "TableScore",
    "evaluate_specs",
    "normalized_rank_at_max_recall",
    "pr_auc",
    "precision_recall_points",
    "rank_at_max_recall",
    "ranking_summary",
    "runtime_stats",
    "separation",
]
