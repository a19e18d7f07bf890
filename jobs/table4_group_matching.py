"""Reproduce paper Table 4 (end-to-end entity group matching).

Usage: spark-submit jobs/table4_group_matching.py [n_groups_synth]
"""
import sys

from repro.session import get_spark
from repro.tables.common import load_datasets, markdown_table
from repro.tables.paper_numbers import TABLE4
from repro.tables.table4 import run_table4


def fmt(d: dict) -> str:
    return f"{d['precision']}/{d['recall']}/{d['f1']}"


def main(n_groups_synth: int = 1000) -> str:
    spark = get_spark("table4")
    datasets = load_datasets(spark, n_groups_synth=n_groups_synth)
    rows = run_table4(datasets)
    out = []
    for name, model_key, r in rows:
        paper = TABLE4.get(name, {}).get(model_key)
        if paper:
            p_pw = "/".join(f"{v:.1f}" for v in paper[0])
            p_pre = "/".join(f"{v:.1f}" for v in paper[1][:3]) + f" ({paper[1][3]:.2f})"
            p_post = "/".join(f"{v:.1f}" for v in paper[2][:3]) + f" ({paper[2][3]:.2f})"
        else:
            p_pw = p_pre = p_post = "-"
        out.append((
            name, model_key,
            fmt(r["pairwise"]), p_pw,
            fmt(r["pre"]) + f" ({r['pre']['purity']})", p_pre,
            fmt(r["post"]) + f" ({r['post']['purity']})", p_post,
            f"{r['inference_seconds']}s",
        ))
    md = markdown_table(out, [
        "dataset", "model",
        "pairwise P/R/F1", "paper",
        "pre-cleanup P/R/F1 (purity)", "paper",
        "post-cleanup P/R/F1 (purity)", "paper",
        "inference",
    ])
    print(md)
    return md


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1000)
