"""Tests for GraLMatch Graph Cleanup (Algorithm 1) — driver-side and Spark."""
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gralmatch import cleanup_component, gralmatch, pre_cleanup
from repro.core.pipeline import full_assignment
from repro.graph.algorithms import Graph
from repro.graph.connected_components import components_of_edges


def _clique(nodes):
    nodes = list(nodes)
    return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]


class TestCleanupComponent:
    def test_small_component_untouched(self):
        edges = _clique(range(4))
        groups = cleanup_component(edges, gamma=25, mu=5)
        assert set(groups.values()) == {0}

    def test_figure4_bridge_removed(self):
        """Two 4-cliques joined by one FP edge split back into two groups."""
        edges = _clique(range(4)) + _clique(range(10, 14)) + [(3, 10)]
        groups = cleanup_component(edges, gamma=25, mu=5)
        assert groups[0] == groups[3] == 0
        assert groups[10] == groups[13] == 10
        assert groups[0] != groups[10]

    def test_mu_bounds_group_sizes(self):
        edges = _clique(range(8))  # one 8-clique, mu=5
        groups = cleanup_component(edges, gamma=25, mu=5)
        sizes = pd.Series(list(groups.values())).value_counts()
        assert sizes.max() <= 5

    def test_gamma_phase_splits_large_chain_of_cliques(self):
        edges = []
        for base in (0, 10, 20, 30):
            edges += _clique(range(base, base + 8))
        edges += [(7, 10), (17, 20), (27, 30)]  # weak links
        groups = cleanup_component(edges, gamma=10, mu=8)
        sizes = pd.Series(list(groups.values())).value_counts()
        assert sizes.max() <= 8
        # cliques stay intact
        for base in (0, 10, 20, 30):
            assert len({groups[v] for v in range(base, base + 8)}) == 1

    def test_mec_only_variant(self):
        edges = _clique(range(4)) + _clique(range(10, 14)) + [(3, 10)]
        groups = cleanup_component(edges, gamma=5, mu=5)
        assert groups[0] != groups[10]

    def test_bc_only_variant(self):
        edges = _clique(range(4)) + _clique(range(10, 14)) + [(3, 10)]
        groups = cleanup_component(edges, gamma=10**9, mu=5)
        assert groups[0] != groups[10]

    def test_every_node_assigned(self):
        edges = _clique(range(12))
        groups = cleanup_component(edges, gamma=6, mu=4)
        assert set(groups) == set(range(12))

    def test_group_id_is_min_member(self):
        groups = cleanup_component([(5, 9), (9, 7)], gamma=25, mu=5)
        assert set(groups.values()) == {5}

    @given(st.lists(st.integers(0, 10**9), min_size=12, max_size=40,
                    unique=True),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_edge_order_and_orientation_do_not_matter(self, ids, rnd):
        # Ids spread over a wide range collide in Python's set tables, so
        # set iteration follows insertion order; small ids would hide an
        # order dependence.
        edges = [(rnd.choice(ids), rnd.choice(ids))
                 for _ in range(rnd.randint(1, 80))]
        permuted = [(v, u) if rnd.random() < 0.5 else (u, v)
                    for u, v in edges]
        rnd.shuffle(permuted)
        assert (cleanup_component(permuted, gamma=8, mu=3)
                == cleanup_component(edges, gamma=8, mu=3))


def _edges_df(spark, edges):
    return spark.createDataFrame(
        pd.DataFrame(edges, columns=["src", "dst"]).astype("int64"),
        "src long, dst long")


class TestGralmatchSpark:
    def _run(self, spark, edges, gamma, mu):
        df = _edges_df(spark, edges)
        out = gralmatch(df, components_of_edges(df), gamma, mu)
        return {r["id"]: r["group"] for r in out.collect()}

    def test_matches_driver_side(self, spark):
        edges = _clique(range(4)) + _clique(range(10, 14)) + [(3, 10)]
        got = self._run(spark, edges, 25, 5)
        assert got == cleanup_component(edges, 25, 5)

    def test_independent_components_cleaned_in_parallel(self, spark):
        edges = (_clique(range(8))
                 + _clique(range(100, 108))
                 + _clique(range(200, 203)))
        got = self._run(spark, edges, 25, 5)
        sizes = pd.Series(list(got.values())).value_counts()
        assert sizes.max() <= 5
        assert got[200] == got[201] == got[202]

    def test_small_components_pass_through(self, spark):
        edges = [(1, 2), (2, 3), (10, 11)]
        got = self._run(spark, edges, 25, 5)
        assert got[1] == got[2] == got[3]
        assert got[10] == got[11]
        assert got[1] != got[10]

    def test_bc_tie_same_under_partitioning_and_edge_order(self, spark):
        # Every edge of a 6-cycle has the same betweenness, so which edge
        # Phase 2 removes first decides which two triples remain.
        cycle = [22, 72, 23, 31, 30, 4]
        edges = [(cycle[i], cycle[(i + 1) % 6]) for i in range(6)]
        orders = (edges, edges[::-1], [(v, u) for u, v in edges])
        key = "spark.sql.shuffle.partitions"
        old = spark.conf.get(key)
        runs = []
        try:
            for partitions in (1, 64):
                spark.conf.set(key, str(partitions))
                runs += [self._run(spark, rows, gamma=8, mu=3)
                         for rows in orders]
        finally:
            spark.conf.set(key, old)
        assert sorted(pd.Series(runs[0]).value_counts()) == [3, 3]
        assert all(r == runs[0] for r in runs)

    def test_gamma_below_mu_rejected(self, spark):
        df = _edges_df(spark, [(1, 2)])
        with pytest.raises(ValueError, match="gamma"):
            gralmatch(df, components_of_edges(df), 4, 5)

    def test_empty_edges_give_empty_assignment(self, spark):
        assert self._run(spark, [], 25, 5) == {}

    def test_self_loop_record_ends_up_singleton(self, spark):
        df = _edges_df(spark, [(4, 4), (1, 2)])
        out = gralmatch(df, components_of_edges(df), 25, 5)
        records = spark.createDataFrame(
            pd.DataFrame({"record_id": [1, 2, 4]}), "record_id long")
        got = {r["id"]: r["group"]
               for r in full_assignment(records, out).collect()}
        assert got == {1: 1, 2: 1, 4: 4}


class TestPreCleanup:
    def _df(self, spark, rows):
        return spark.createDataFrame(pd.DataFrame(
            rows, columns=["src", "dst", "from_token_overlap"]),
            "src long, dst long, from_token_overlap boolean")

    def _run(self, spark, rows, gamma_pre):
        df = self._df(spark, rows)
        return pre_cleanup(df, components_of_edges(df), gamma_pre=gamma_pre)

    def test_token_edges_dropped_in_big_component(self, spark):
        # 60-node chain (component > 50) with one token-overlap edge.
        rows = [(i, i + 1, False) for i in range(60)]
        rows[30] = (30, 31, True)
        out = self._run(spark, rows, gamma_pre=50)
        kept = {(r["src"], r["dst"]) for r in out.collect()}
        assert (30, 31) not in kept
        assert len(kept) == 59  # the other 59 chain edges survive

    def test_token_edges_kept_in_small_component(self, spark):
        rows = [(1, 2, True), (2, 3, False)]
        out = self._run(spark, rows, gamma_pre=50)
        assert out.count() == 2

    def test_id_edges_never_dropped(self, spark):
        rows = [(i, i + 1, False) for i in range(80)]
        out = self._run(spark, rows, gamma_pre=50)
        assert out.count() == 80

    def test_threshold_boundary(self, spark):
        # component of exactly gamma_pre records is NOT cleaned.
        rows = [(i, i + 1, True) for i in range(9)]  # 10 nodes
        out = self._run(spark, rows, gamma_pre=10)
        assert out.count() == 9

    def test_empty_edges_pass_through(self, spark):
        assert self._run(spark, [], gamma_pre=50).count() == 0
