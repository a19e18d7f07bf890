"""Tests for the DataFrame-API connected components."""
import networkx as nx
import numpy as np
import pandas as pd
import pytest

from repro.graph.connected_components import (components_of_edges,
                                              connected_components)


def _edges_df(spark, edges):
    return spark.createDataFrame(
        pd.DataFrame(edges, columns=["src", "dst"]).astype("int64"))


def _verts_df(spark, ids):
    return spark.createDataFrame(pd.DataFrame({"id": list(ids)}).astype("int64"))


def _labels(df):
    return {r["id"]: r["component"] for r in df.collect()}


class TestConnectedComponents:
    def test_single_edge(self, spark):
        labels = _labels(connected_components(
            _verts_df(spark, [1, 2]), _edges_df(spark, [(1, 2)])))
        assert labels == {1: 1, 2: 1}

    def test_two_components(self, spark):
        labels = _labels(connected_components(
            _verts_df(spark, [1, 2, 3, 4]),
            _edges_df(spark, [(1, 2), (3, 4)])))
        assert labels[1] == labels[2] == 1
        assert labels[3] == labels[4] == 3

    def test_isolated_vertex_is_own_component(self, spark):
        labels = _labels(connected_components(
            _verts_df(spark, [1, 2, 9]), _edges_df(spark, [(1, 2)])))
        assert labels[9] == 9

    def test_chain_converges(self, spark):
        n = 30
        labels = _labels(connected_components(
            _verts_df(spark, range(n)),
            _edges_df(spark, [(i, i + 1) for i in range(n - 1)])))
        assert set(labels.values()) == {0}

    def test_component_label_is_min_id(self, spark):
        labels = _labels(connected_components(
            _verts_df(spark, [5, 7, 9]), _edges_df(spark, [(9, 7), (7, 5)])))
        assert set(labels.values()) == {5}

    def test_duplicate_and_reversed_edges(self, spark):
        labels = _labels(connected_components(
            _verts_df(spark, [1, 2]),
            _edges_df(spark, [(1, 2), (2, 1), (1, 2)])))
        assert labels == {1: 1, 2: 1}

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graph_matches_networkx(self, spark, seed):
        rng = np.random.default_rng(seed)
        n = 40
        edges = [(int(rng.integers(0, n)), int(rng.integers(0, n)))
                 for _ in range(50)]
        edges = [(u, v) for u, v in edges if u != v]
        labels = _labels(connected_components(
            _verts_df(spark, range(n)), _edges_df(spark, edges)))
        ng = nx.Graph()
        ng.add_nodes_from(range(n))
        ng.add_edges_from(edges)
        for comp in nx.connected_components(ng):
            assert len({labels[v] for v in comp}) == 1
            assert labels[min(comp)] == min(comp)

    def test_components_of_edges_only_edge_vertices(self, spark):
        labels = _labels(components_of_edges(_edges_df(spark, [(3, 8)])))
        assert labels == {3: 3, 8: 3}

    def test_empty_edges_give_empty_labels(self, spark):
        out = components_of_edges(spark.createDataFrame(
            [], "src long, dst long"))
        assert out.schema.simpleString() == "struct<id:bigint,component:bigint>"
        assert out.count() == 0

    def test_self_loop_is_own_component(self, spark):
        labels = _labels(components_of_edges(_edges_df(spark, [(4, 4)])))
        assert labels == {4: 4}
