"""The traced layers and the per-layer metrics derived from their spans.

``LAYERS`` names each layer's public function; ``per_layer`` turns the
spans of one traced ``train`` call and one traced ``run_group_matching``
call into the metrics listed in README.md. Row counts are taken from the
spans' recorded inputs and (checkpointed) outputs after the traced call
returned, so they cost no traced time.
"""
from __future__ import annotations

from pyspark.sql import functions as F

from spans import Span, Tracer, named, resolve, self_seconds

PIPELINE = "core.pipeline"
TRAIN = "matching.train"
CC = "graph.connected_components"

LAYERS = {
    "repro.core.pipeline.run_group_matching": PIPELINE,
    "repro.core.pipeline.candidate_pairs": "blocking.candidate_pairs",
    "repro.blocking.id_overlap.id_overlap_companies": "blocking.id_overlap",
    "repro.blocking.id_overlap.id_overlap_securities": "blocking.id_overlap",
    "repro.blocking.token_overlap.token_overlap": "blocking.token_overlap",
    "repro.blocking.issuer_match.issuer_match": "blocking.issuer_match",
    "repro.matching.model.train": TRAIN,
    "repro.matching.splits.labeled_pairs": "matching.pairs",
    "repro.matching.model.serialized_records": "matching.serialize",
    "repro.matching.model.featurized": "matching.features",
    "repro.matching.model.TrainedModel.predict": "matching.predict",
    "repro.graph.connected_components.connected_components": CC,
    "repro.core.gralmatch.pre_cleanup": "core.pre_cleanup",
    "repro.core.gralmatch.gralmatch": "core.gralmatch",
    "repro.metrics.pairs.pairwise_scores": "metrics.pairs",
    "repro.metrics.pairs.closure_scores": "metrics.pairs",
    "repro.metrics.purity.cluster_purity": "metrics.purity",
}

#: Counted, not spanned: each call inside a CC span beyond its two set-up
#: checkpoints is one label-propagation round.
MATERIALIZE = "repro.graph.connected_components.materialize"
CC_SETUP_CHECKPOINTS = 2

#: Algorithm 1, replayed driver-side on the per-component edge lists.
REPLAY_LAYERS = {
    "repro.core.gralmatch.cleanup_component": "core.cleanup_component",
    "repro.graph.algorithms.min_edge_cut": "graph.algorithms.min_edge_cut",
    "repro.graph.algorithms.edge_betweenness":
        "graph.algorithms.edge_betweenness",
}


#: Every per-layer metric a traced run reports, in README.md's order.
PER_LAYER = (
    *(f"{CC}.{k}" for k in ("calls", "s", "rounds", "spark_jobs",
                            "edges_in", "largest_component")),
    "blocking.token_overlap.s", "blocking.token_overlap.pairs",
    "blocking.id_overlap.s", "blocking.id_overlap.pairs",
    "blocking.issuer_match.s", "blocking.issuer_match.pairs",
    "blocking.candidate_pairs.s", "blocking.candidates",
    "blocking.pair_completeness",
    "matching.serialize.s", "matching.serialize.records",
    "matching.features.s", "matching.features.pairs",
    "matching.predict.s", "matching.predict.positives",
    "matching.predict.positive_rate",
    "matching.train.s", "matching.train.fit_s", "matching.train.features_s",
    "matching.train.pairs",
    "core.pre_cleanup.s", "core.pre_cleanup.edges_removed",
    *(f"core.gralmatch.{k}" for k in ("s", "spark_jobs", "components",
                                      "largest_component", "groups_out")),
    "core.cleanup_component.s", "core.cleanup_component.max_s",
    "core.cleanup_component.mismatched_components",
    "graph.algorithms.min_edge_cut.calls", "graph.algorithms.min_edge_cut.s",
    "graph.algorithms.edge_betweenness.calls",
    "graph.algorithms.edge_betweenness.s",
    "metrics.pairs.s", "metrics.purity.s",
    "core.pipeline.s", "trace.match_s", "trace.overhead_s",
)

_RATIOS = {"blocking.pair_completeness", "matching.predict.positive_rate"}


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    return "ratio" if metric in _RATIOS else "count"


def tracer(spark) -> Tracer:
    """A tracer of ``LAYERS`` that forces DataFrame results with the
    program's own ``materialize`` and counts Spark jobs per span."""
    from pyspark.sql import DataFrame
    return Tracer(LAYERS, counted=(MATERIALIZE,),
                  force=resolve(MATERIALIZE)[2], force_type=DataFrame,
                  spark_context=spark.sparkContext)


def _rows(spans: list[Span]) -> int:
    return sum(s.output.count() for s in spans)


def _largest(labels, key: str) -> int:
    row = labels.groupBy(key).count().agg(F.max("count")).first()
    return int(row[0] or 0)


def train_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced ``train`` call."""
    return {
        "matching.train.fit_s": self_seconds(spans, TRAIN),
        "matching.train.features_s": self_seconds(spans, "matching.features"),
        "matching.train.pairs": _rows(named(spans, "matching.pairs")),
    }


def per_layer(s: list[Span], records, gamma: int, mu: int) -> dict:
    """Per-layer metrics (name → value) of one traced ``run_group_matching``
    call, given its spans."""
    from repro.metrics.pairs import pairwise_scores

    m = {}
    cc = named(s, CC)
    m[f"{CC}.calls"] = len(cc)
    m[f"{CC}.s"] = self_seconds(s, CC)
    m[f"{CC}.rounds"] = sum(c.counted - CC_SETUP_CHECKPOINTS for c in cc)
    m[f"{CC}.spark_jobs"] = sum(c.spark_jobs for c in cc)
    m[f"{CC}.edges_in"] = sum(c.args[1].count() for c in cc)
    m[f"{CC}.largest_component"] = max(
        (_largest(c.output, "component") for c in cc), default=0)

    for layer in ("blocking.token_overlap", "blocking.id_overlap",
                  "blocking.issuer_match"):
        m[f"{layer}.s"] = self_seconds(s, layer)
        m[f"{layer}.pairs"] = _rows(named(s, layer))
    cands = named(s, "blocking.candidate_pairs")
    m["blocking.candidate_pairs.s"] = self_seconds(
        s, "blocking.candidate_pairs")
    m["blocking.candidates"] = _rows(cands)
    m["blocking.pair_completeness"] = pairwise_scores(
        cands[-1].output, records)["recall"]

    m["matching.serialize.s"] = self_seconds(s, "matching.serialize")
    m["matching.serialize.records"] = _rows(named(s, "matching.serialize"))
    m["matching.features.s"] = self_seconds(s, "matching.features")
    m["matching.features.pairs"] = _rows(named(s, "matching.features"))
    m["matching.predict.s"] = self_seconds(s, "matching.predict")
    scored = sum(p.output.count() for p in named(s, "matching.predict"))
    positives = sum(p.output.where(F.col("prediction") == 1.0).count()
                    for p in named(s, "matching.predict"))
    m["matching.predict.positives"] = positives
    m["matching.predict.positive_rate"] = positives / scored if scored else 0.0

    pre = named(s, "core.pre_cleanup")
    m["core.pre_cleanup.s"] = self_seconds(s, "core.pre_cleanup")
    m["core.pre_cleanup.edges_removed"] = sum(
        p.args[0].count() - p.output.count() for p in pre)

    gm = named(s, "core.gralmatch")
    gm_cc = [c for c in cc if c.parent in gm]
    m["core.gralmatch.s"] = self_seconds(s, "core.gralmatch")
    m["core.gralmatch.spark_jobs"] = sum(g.spark_jobs for g in gm)
    m["core.gralmatch.components"] = sum(
        c.output.select("component").distinct().count() for c in gm_cc)
    m["core.gralmatch.largest_component"] = max(
        (_largest(c.output, "component") for c in gm_cc), default=0)
    m["core.gralmatch.groups_out"] = sum(
        g.output.select("group").distinct().count() for g in gm)

    m["metrics.pairs.s"] = self_seconds(s, "metrics.pairs")
    m["metrics.purity.s"] = self_seconds(s, "metrics.purity")
    m["core.pipeline.s"] = self_seconds(s, PIPELINE)

    m.update(replay(gm, gm_cc, gamma, mu))
    return m


def replay(gm: list[Span], gm_cc: list[Span], gamma: int, mu: int) -> dict:
    """Algorithm 1 replayed driver-side on the edge lists each traced
    ``gralmatch`` call grouped by component, timed per call of
    ``cleanup_component`` and of the two graph algorithms. Components whose
    replayed groups differ from the Spark output are counted, never
    asserted on: Algorithm 1 depends on edge order today."""
    import repro.core.gralmatch as gralmatch

    work = []
    for g, c in zip(gm, gm_cc):
        edges = g.args[0].join(c.output.withColumnRenamed("id", "src"),
                               "src").select("src", "dst", "component")
        got = g.output.toPandas()
        work.append((edges.toPandas(), dict(zip(got["id"], got["group"]))))

    mismatched = 0
    with Tracer(REPLAY_LAYERS) as tr:
        for edges, spark_groups in work:
            for _, comp in edges.groupby("component", sort=True):
                groups = gralmatch.cleanup_component(
                    list(zip(comp["src"].tolist(), comp["dst"].tolist())),
                    gamma, mu)
                mismatched += any(spark_groups.get(r) != grp
                                  for r, grp in groups.items())

    m = {}
    comps = named(tr.spans, "core.cleanup_component")
    m["core.cleanup_component.s"] = sum(c.seconds for c in comps)
    m["core.cleanup_component.max_s"] = max(
        (c.seconds for c in comps), default=0.0)
    m["core.cleanup_component.mismatched_components"] = mismatched
    for name in ("graph.algorithms.min_edge_cut",
                 "graph.algorithms.edge_betweenness"):
        calls = named(tr.spans, name)
        m[f"{name}.calls"] = len(calls)
        m[f"{name}.s"] = sum(c.seconds for c in calls)
    return m
