"""GraLMatch benchmark: one Table-4 cell, timed end to end or traced.

    python3 perfbench/run.py --workload companies --seed 0 --seconds 20 \
        --trace 0

Run from the repository root. One closed-loop client: one process makes
one call at a time. Every run first makes sure the workload's model exists:
it is trained (traced) on the seed-0 inputs once per checkout and program
version, like a build step, and loaded from ``perfbench/.work/models`` by
every run. ``--trace 0`` then calls ``run_group_matching`` on the
``--seed`` inputs until ``--seconds`` of matching time have been measured
(at least once), checks every result, and prints the end-to-end metrics.
``--trace 1`` makes the same first call traced, checks it, and prints the
per-layer metrics. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run's context (versions, sizes, Spark conf). Both are also written,
with every span, to ``perfbench/.work/runs/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: Data set-ups per run; ``setup_s`` adds their median to the session start.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "match_s": "s", "setup_s": "s",
    "pairwise_f1": "ratio", "pre_f1": "ratio", "post_precision": "ratio",
    "post_recall": "ratio", "post_f1": "ratio", "post_purity": "ratio",
    "driver_rss_mb": "MB",
}


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        kib = next(int(line.split()[1]) for line in f
                   if line.startswith("VmHWM:"))
    return kib / 1024


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def context(spark, args, inputs) -> dict:
    import pandas
    import pyspark
    conf = dict(spark.sparkContext.getConf().getAll())
    for key in ("spark.sql.shuffle.partitions",
                "spark.sql.execution.arrow.pyspark.enabled",
                "spark.sql.autoBroadcastJoinThreshold"):
        conf[key] = spark.conf.get(key)
    return {
        "git_sha": git_sha(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "sizes": inputs.sizes, "nproc": len(os.sched_getaffinity(0)),
        "driver_memory": conf.get("spark.driver.memory"),
        "versions": {"spark": pyspark.__version__,
                     "python": platform.python_version(),
                     "pandas": pandas.__version__},
        "spark_conf": dict(sorted(conf.items())),
    }


def run(spark, session_s: float, args) -> tuple[dict, dict, list]:
    """(context, result, spans) of one benchmark run."""
    from repro.core import pipeline

    import layers
    import workloads as W
    from check import OutputCheck

    wl = W.WORKLOADS[args.workload]
    model_dir, build_s = W.ensure_model(spark, wl, SRC, WORK)
    data_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = W.prepare(spark, wl, args.seed)
        data_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    model = W.load_model(model_dir, wl)
    setup_s = session_s + statistics.median(data_s) + time.perf_counter() - t0

    check = OutputCheck(
        WORK / "reference" / f"{wl.name}-g{W.GROUPS}-seed{args.seed}.json",
        inputs.truth, inputs.mu)
    attempted = failed = 0

    def match():
        nonlocal attempted, failed
        t0 = time.perf_counter()
        # Looked up at call time, so a tracer's patch applies.
        res = pipeline.run_group_matching(
            inputs.records, wl.kind, model, inputs.gamma, inputs.mu,
            securities=inputs.securities,
            company_groups=inputs.company_groups)
        seconds = time.perf_counter() - t0
        attempted += 1
        problems = check(res)
        if problems:
            failed += 1
            print(f"output check failed: {problems}", file=sys.stderr)
        return res, seconds

    ctx = {**context(spark, args, inputs), "model_build_s": build_s,
           "program": model_dir.name}
    spans = []
    if not args.trace:
        times = []
        while not times or sum(times) < args.seconds:
            res, seconds = match()
            times.append(seconds)
        metrics = {
            "match_s": statistics.median(times), "setup_s": setup_s,
            "pairwise_f1": res.pairwise["f1"],
            "pre_f1": res.pre_cleanup["f1"],
            "post_precision": res.post_cleanup["precision"],
            "post_recall": res.post_cleanup["recall"],
            "post_f1": res.post_cleanup["f1"],
            "post_purity": res.post_cleanup["purity"],
            "driver_rss_mb": peak_rss_mb(),
        }
        unit = END_TO_END_UNITS.__getitem__
    else:
        # The traced call is the process's first, like the timed call of
        # an untraced run, so its layer times explain that run's match_s.
        with layers.tracer(spark) as tr:
            _, traced_s = match()
        match_spans = tr.under(layers.PIPELINE)
        metrics = {**layers.per_layer(match_spans, inputs.records,
                                      inputs.gamma, inputs.mu),
                   **W.train_metrics(model_dir)}
        untraced = untraced_match_s(ctx)
        ctx["overhead_baseline"] = (f"median of {len(untraced)} untraced runs"
                                    if untraced else "one later call")
        if not untraced:
            untraced = [match()[1]]
        metrics["trace.match_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - statistics.median(untraced)
        metrics = {k: metrics[k] for k in layers.PER_LAYER}
        unit = layers.unit
        spans = [_span_record(s) for s in match_spans]

    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in metrics.items()},
    }
    return ctx, result, spans


def untraced_match_s(ctx: dict) -> list[float]:
    """match_s of this checkout's recorded untraced runs of the same program
    version and workload: those of the same seed if there are any, else all
    of them."""
    same_seed, any_seed = [], []
    for p in sorted((WORK / "runs").glob("*.json")):
        rec = json.loads(p.read_text())
        c, result = rec["context"], rec["result"]
        if (c.get("program"), c["workload"], c["trace"]) != (
                ctx["program"], ctx["workload"], 0) or not result["correct"]:
            continue
        any_seed.append(result["metrics"]["match_s"]["value"])
        if c["seed"] == ctx["seed"]:
            same_seed.append(any_seed[-1])
    return same_seed or any_seed


def _span_record(s) -> dict:
    return {"name": s.name, "parent": s.parent and s.parent.name,
            "seconds": s.seconds, "self_seconds": s.self_seconds,
            "spark_jobs": s.spark_jobs, "counted": s.counted}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import start_session, stop_session

    t0 = time.perf_counter()
    spark = start_session(SRC, WORK)
    session_s = time.perf_counter() - t0
    try:
        ctx, result, spans = run(spark, session_s, args)
    finally:
        stop_session(spark)
        for scratch in ("spark", "tmp", "warehouse"):
            shutil.rmtree(WORK / scratch, ignore_errors=True)

    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = (f"{time.strftime('%Y%m%dT%H%M%S')}-{args.workload}"
            f"-seed{args.seed}-trace{args.trace}.json")
    (runs / name).write_text(json.dumps(
        {"context": ctx, "result": result, "spans": spans}, indent=1))
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
