"""Tests of the benchmark's own code (no Spark needed).

    PYTHONPATH=src python -m pytest perfbench -q -p no:cacheprovider
"""
import json
import sys
import time
import types
from pathlib import Path
from types import SimpleNamespace

import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, named  # noqa: E402


@pytest.fixture
def fake_package():
    """``fakepkg.a`` defines the traced functions; ``fakepkg.b`` binds
    ``f`` through ``from fakepkg.a import f``."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def leaf():
        time.sleep(0.02)
        return "leaf"

    def counted():
        return None

    def f():
        time.sleep(0.05)
        a.counted()
        return [a.leaf(), a.leaf()]

    class Cls:
        def m(self, x):
            return x + 1

    a.leaf, a.counted, a.f, a.Cls = leaf, counted, f, Cls
    b.f = f
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield SimpleNamespace(a=a, b=b, f=f, leaf=leaf, counted=counted, m=Cls.m)
    for name in mods:
        sys.modules.pop(name)


LAYERS = {"fakepkg.a.f": "outer", "fakepkg.a.leaf": "inner",
          "fakepkg.a.Cls.m": "method"}


def test_tracer_patches_every_binding_and_restores_it(fake_package):
    p = fake_package
    with Tracer(LAYERS, counted=("fakepkg.a.counted",),
                package="fakepkg") as tr:
        assert p.a.f is not p.f and p.b.f is p.a.f   # both bindings wrapped
        assert p.a.Cls.m is not p.m
        assert p.b.f() == ["leaf", "leaf"]           # caught via fakepkg.b
        assert p.a.Cls().m(1) == 2
    assert p.a.f is p.f and p.b.f is p.f and p.a.leaf is p.leaf
    assert p.a.counted is p.counted and p.a.Cls.m is p.m
    assert [s.name for s in tr.spans] == ["inner", "inner", "outer",
                                          "method"]


def test_tracer_restores_after_an_exception(fake_package):
    p = fake_package
    with pytest.raises(RuntimeError):
        with Tracer(LAYERS, package="fakepkg"):
            raise RuntimeError("boom")
    assert p.a.f is p.f and p.b.f is p.f and p.a.Cls.m is p.m


def test_self_time_is_span_minus_children(fake_package):
    with Tracer(LAYERS, counted=("fakepkg.a.counted",),
                package="fakepkg") as tr:
        fake_package.a.f()
    (outer,) = named(tr.spans, "outer")
    inner = named(tr.spans, "inner")
    assert all(s.parent is outer for s in inner)
    assert outer.self_seconds == pytest.approx(
        outer.seconds - sum(s.seconds for s in inner), abs=1e-12)
    assert 0.05 <= outer.self_seconds < outer.seconds - 0.04
    assert outer.counted == 1 and all(s.counted == 0 for s in inner)
    assert tr.under("outer") == tr.spans


def _truth():
    # Five ground-truth groups of two records each.
    return pd.DataFrame({"id": range(10), "gt": [i // 2 for i in range(10)]})


def _assignment(groups):
    return pd.DataFrame([(i, min(g)) for g in groups for i in g],
                        columns=["id", "group"])


CORRECT = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
MERGED = [(0, 1, 2, 3), (4, 5), (6, 7), (8, 9)]
MISSING = [(0, 1), (2, 3), (4, 5), (6, 7), (8,)]


def _result(groups, reported):
    asg = _assignment(groups)
    return SimpleNamespace(
        assignment=SimpleNamespace(toPandas=lambda: asg),
        n_candidates=20, pairwise={"precision": 1.0, "recall": 1.0,
                                   "f1": 1.0, "predicted": 5},
        pre_cleanup={**reported}, post_cleanup={**reported})


def test_oracle_scores_a_correct_assignment():
    scores = check.oracle_scores(_assignment(CORRECT), _truth())
    assert scores == {"precision": 1.0, "recall": 1.0, "f1": 1.0,
                      "purity": 1.0}


@pytest.mark.parametrize("groups", [MERGED, MISSING],
                         ids=["two-groups-merged", "record-missing"])
def test_check_rejects_a_wrong_assignment(groups, tmp_path):
    truth = _truth()
    correct = check.oracle_scores(_assignment(CORRECT), truth)
    out = check.OutputCheck(tmp_path / "ref.json", truth, mu=5)
    assert out(_result(CORRECT, correct)) == []
    assert json.loads((tmp_path / "ref.json").read_text())["groups"] == 5
    # Reported scores are the correct ones, as a Spark bug would leave them.
    problems = out(_result(groups, correct))
    assert any("assignment_sha256" in p for p in problems)
    assert any(p.startswith("post ") for p in problems)
    # Even with scores that match it, the invariants catch the assignment.
    own = check.oracle_scores(_assignment(groups), truth)
    if groups is MISSING:
        assert any("unassigned" in p for p in
                   check.verify(_assignment(groups), truth, own, mu=5))
    else:
        assert check.verify(_assignment(groups), truth, own, mu=3)


def test_first_failing_result_records_no_reference(tmp_path):
    truth = _truth()
    out = check.OutputCheck(tmp_path / "ref.json", truth, mu=5)
    assert out(_result(MISSING, check.oracle_scores(_assignment(CORRECT),
                                                    truth)))
    assert not (tmp_path / "ref.json").exists()


def test_seed_argument_changes_generated_inputs():
    a0, s0 = workloads.generate(0, groups=20)
    a0_again, _ = workloads.generate(0, groups=20)
    a1, s1 = workloads.generate(1, groups=20)
    pd.testing.assert_frame_equal(a0, a0_again)
    assert not a0.equals(a1) and not s0.equals(s1)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: layers.unit(name) for name in layers.PER_LAYER}
