"""Reproduce paper Table 1 (dataset statistics).

Usage: spark-submit jobs/table1_stats.py [n_groups_synth]
"""
import sys

from repro.session import get_spark
from repro.tables.common import load_datasets, markdown_table
from repro.tables.paper_numbers import TABLE1
from repro.tables.table1 import run_table1


def main(n_groups_synth: int = 1000) -> str:
    spark = get_spark("table1")
    datasets = load_datasets(spark, n_groups_synth=n_groups_synth)
    rows = run_table1(datasets)
    out = []
    stats_keys = ("n_sources", "n_entities", "n_records", "n_matches",
                  "avg_matches_per_entity", "pct_with_description")
    for name, stats in rows:
        paper = TABLE1.get(name, {})
        for k in stats_keys:
            if k in stats:
                out.append((name, k, stats[k], paper.get(k, "-")))
    md = markdown_table(out, ["dataset", "stat", "measured", "paper"])
    print(md)
    return md


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1000)
