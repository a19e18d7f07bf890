"""Cluster Purity Score (paper Section 5.3.3).

    ClPur = (1 / sum_i |V_i|) * sum_i |V_i| * c_TP,i / |E_i|

over the output record groups as complete subgraphs c_i = (V_i, E_i), where
|E_i| = C(|V_i|, 2) and c_TP,i = the number of true-positive pairs inside
group i (sum over ground-truth cells of C(n, 2)). Records the assignment
does not cover are singleton groups; a group with |E_i| = 0 contributes
purity 1 (no wrong pair can exist in it).
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.metrics.pairs import closure_scores


def cluster_purity(assignment: DataFrame, records: DataFrame,
                   gt_col: str = "gt_group") -> float:
    """Weighted average per-group pair purity over all records.

    Computed by :func:`repro.metrics.pairs.closure_scores` from the same
    contingency table as the closure P/R/F1; use that when both are needed.
    """
    return closure_scores(assignment, records, gt_col)["purity"]
