"""Reproduce paper Table 3 (fine-tuning scores on test pairs).

Usage: spark-submit jobs/table3_finetune.py [n_groups_synth] [n_seeds]
"""
import sys

from repro.session import get_spark
from repro.tables.common import load_datasets, markdown_table
from repro.tables.paper_numbers import TABLE3
from repro.tables.table3 import run_table3


def main(n_groups_synth: int = 1000, n_seeds: int = 2) -> str:
    spark = get_spark("table3")
    datasets = load_datasets(spark, n_groups_synth=n_groups_synth)
    rows = run_table3(datasets, seeds=tuple(range(n_seeds)))
    out = []
    for name, model_key, s in rows:
        paper = TABLE3.get(name, {}).get(model_key)
        pp = tuple(f"{v:.2f}" for v in paper) if paper else ("-",) * 3
        out.append((
            name, model_key,
            f"{s['precision']}±{s['precision_std']}", pp[0],
            f"{s['recall']}±{s['recall_std']}", pp[1],
            f"{s['f1']}±{s['f1_std']}", pp[2],
            f"{s['train_seconds']}s",
        ))
    md = markdown_table(out, ["dataset", "model", "P", "P (paper)",
                              "R", "R (paper)", "F1", "F1 (paper)",
                              "train time"])
    print(md)
    return md


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1000,
         int(sys.argv[2]) if len(sys.argv) > 2 else 2)
