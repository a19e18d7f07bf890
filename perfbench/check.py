"""Output check for one ``run_group_matching`` result.

Three independent checks, all run outside the timed section:

1. invariants of the final assignment: every record is assigned exactly
   once, and no group is larger than μ;
2. the post-cleanup closure P/R/F1 and Cluster Purity, recomputed in
   DuckDB from the collected assignment, equal the scores Spark reported;
3. row counts, all three stages' scores and a SHA-256 of the sorted
   assignment equal the reference the first run recorded for the same
   inputs. A difference is reported, never tolerated: the final
   assignment may depend only on the predicted edges.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import duckdb
import pandas as pd

SCORE_KEYS = ("precision", "recall", "f1")

_ORACLE_SQL = """
WITH a AS (
    SELECT t.gt, s."group" AS g
    FROM truth t JOIN asg s ON t.id = s.id),
cells AS (SELECT g, gt, count(*) AS n FROM a GROUP BY g, gt),
groups AS (
    SELECT g, sum(n) AS nv, sum(n * (n - 1) / 2) AS tp
    FROM cells GROUP BY g),
gts AS (SELECT gt, count(*) AS n FROM truth GROUP BY gt)
SELECT
    (SELECT coalesce(sum(nv * (nv - 1) / 2), 0) FROM groups) AS predicted,
    (SELECT coalesce(sum(tp), 0) FROM groups) AS tp,
    (SELECT coalesce(sum(n * (n - 1) / 2), 0) FROM gts) AS gt_pairs,
    (SELECT sum(nv * CASE WHEN nv > 1 THEN tp / (nv * (nv - 1) / 2)
                          ELSE 1.0 END) / sum(nv) FROM groups) AS purity
"""


def oracle_scores(assignment: pd.DataFrame, truth: pd.DataFrame) -> dict:
    """Closure P/R/F1 and purity of ``assignment`` (id, group) against
    ``truth`` (id, gt), computed in DuckDB."""
    con = duckdb.connect()
    try:
        con.register("asg", assignment[["id", "group"]])
        con.register("truth", truth[["id", "gt"]])
        pred, tp, gt_pairs, purity = con.execute(_ORACLE_SQL).fetchone()
    finally:
        con.close()
    p = tp / pred if pred else 0.0
    r = tp / gt_pairs if gt_pairs else 0.0
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return {"precision": p, "recall": r, "f1": f1,
            "purity": 1.0 if purity is None else float(purity)}


def verify(assignment: pd.DataFrame, truth: pd.DataFrame,
           reported_post: dict, mu: int) -> list[str]:
    """Invariant and oracle problems of one final assignment."""
    problems = []
    ids = assignment["id"]
    if ids.duplicated().any():
        problems.append(f"{int(ids.duplicated().sum())} records assigned "
                        "more than once")
    missing = set(truth["id"]) - set(ids)
    extra = set(ids) - set(truth["id"])
    if missing or extra:
        problems.append(f"{len(missing)} records unassigned, {len(extra)} "
                        "unknown ids assigned")
    largest = int(assignment.groupby("group").size().max())
    if largest > mu:
        problems.append(f"group of {largest} records exceeds mu={mu}")
    oracle = oracle_scores(assignment, truth)
    for k in (*SCORE_KEYS, "purity"):
        if not math.isclose(oracle[k], reported_post[k], rel_tol=1e-9,
                            abs_tol=1e-12):
            problems.append(f"post {k}: Spark {reported_post[k]!r} != "
                            f"DuckDB {oracle[k]!r}")
    return problems


def assignment_sha256(assignment: pd.DataFrame) -> str:
    rows = assignment[["id", "group"]].sort_values(["id", "group"])
    text = "\n".join(f"{i},{g}" for i, g in rows.itertuples(index=False))
    return hashlib.sha256(text.encode()).hexdigest()


def summarize(res, assignment: pd.DataFrame) -> dict:
    """What must repeat exactly for the same inputs."""
    def scores(d: dict, keys: tuple) -> dict:
        # 12 significant digits: Spark's floating sums may differ in the
        # last bits with the order partitions are combined in.
        return {k: float(f"{d[k]:.12g}") for k in keys}

    return {
        "candidates": res.n_candidates,
        "predicted_edges": res.pairwise["predicted"],
        "assigned": len(assignment),
        "groups": int(assignment["group"].nunique()),
        "pairwise": scores(res.pairwise, SCORE_KEYS),
        "pre": scores(res.pre_cleanup, (*SCORE_KEYS, "purity")),
        "post": scores(res.post_cleanup, (*SCORE_KEYS, "purity")),
        "assignment_sha256": assignment_sha256(assignment),
    }


def compare(summary: dict, reference: dict) -> list[str]:
    return [f"{k}: {summary.get(k)!r} != reference {reference[k]!r}"
            for k in reference if summary.get(k) != reference[k]]


class OutputCheck:
    """Checks every result of one workload and seed against the reference
    stored at ``path`` (written by the first result ever checked)."""

    def __init__(self, path: Path, truth: pd.DataFrame, mu: int):
        self.path = path
        self.truth = truth
        self.mu = mu
        self.reference = (json.loads(path.read_text()) if path.exists()
                          else None)

    def __call__(self, res) -> list[str]:
        assignment = res.assignment.toPandas()
        problems = verify(assignment, self.truth, res.post_cleanup, self.mu)
        summary = summarize(res, assignment)
        if self.reference is None and not problems:
            self.reference = summary
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(summary, indent=1))
        elif self.reference is not None:
            problems += compare(summary, self.reference)
        return problems
