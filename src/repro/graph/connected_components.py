"""Connected components of an edge DataFrame, by a union-find in the driver.

The vertex ids and the ``(src, dst)`` edges are collected through Arrow and
merged by a union-find whose root is always the smallest id of its set, so
every vertex ends up labelled with the minimum id of its component. At
paper scale the edges fit easily in the driver: under 1.14M candidate
pairs, about 18 MB as two int64 columns.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def materialize(df: DataFrame) -> DataFrame:
    """Eagerly checkpoint ``df`` and drop its inherited plan statistics.

    ``localCheckpoint`` truncates lineage but *preserves* the origin plan's
    Catalyst statistics. Join size estimates are multiplicative, so a
    long-lived intermediate that feeds further joins keeps compounding
    sizeInBytes until Catalyst spends its planning time multiplying huge
    BigIntegers. Rebuilding the Dataset over the checkpointed RDD resets the
    estimate to the default.
    """
    cp = df.localCheckpoint(eager=True)
    return cp.sparkSession.createDataFrame(cp.rdd, cp.schema)


def connected_components(vertices: DataFrame, edges: DataFrame) -> DataFrame:
    """Label vertices with their connected component.

    Parameters
    ----------
    vertices : DataFrame with column ``id``.
    edges : DataFrame with columns ``src``, ``dst`` (undirected; either
        orientation, duplicates and self-loops fine; both ends must be
        vertices).
    Returns DataFrame ``(id, component)`` where ``component`` is the minimum
    vertex id of the component.
    """
    ids = vertices.select("id").toPandas()["id"].tolist()
    pairs = edges.select("src", "dst").toPandas()
    parent = dict(zip(ids, ids))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]  # path halving
            v = parent[v]
        return v

    for u, v in zip(pairs["src"].tolist(), pairs["dst"].tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)

    pdf = pd.DataFrame({"id": ids, "component": [find(v) for v in ids]},
                       dtype="int64")
    return vertices.sparkSession.createDataFrame(pdf, "id long, component long")


def components_of_edges(edges: DataFrame) -> DataFrame:
    """Components over exactly the vertices that appear in ``edges``."""
    verts = (
        edges.select(F.col("src").alias("id"))
        .union(edges.select(F.col("dst").alias("id")))
        .distinct()
    )
    return connected_components(verts, edges)
