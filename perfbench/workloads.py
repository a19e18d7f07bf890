"""Workloads, their generated inputs and the Spark session they run on.

Each workload is one Table-4 cell: a synthetic dataset scored by one
surrogate model and cleaned with the paper's Table 2 thresholds. Inputs are
generated from the ``--seed`` argument (generator seed ``7 + seed``, so
seed 0 gives the Table-4 default), built before any timing starts, and
handed to the program only as DataFrames.
"""
from __future__ import annotations

import hashlib
import json
import os
import shlex
import time
from dataclasses import dataclass
from pathlib import Path

import pandas as pd

#: Synthetic groups per workload. The paper-scale cell (3000 groups) takes
#: 95-111 s per ``run_group_matching`` call on 4 cores, more than one run
#: of this benchmark may spend; see README.md.
GROUPS = 300
GEN_SEED = 7
SPLIT_SEED = 0
TRAIN_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str     # dataset kind of ``run_group_matching``
    model: str    # key of ``repro.matching.model.MODELS``
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("companies", "companies", "distilbert128_all",
             "the paper's main cell: ID and Token Overlap blocking, three "
             "connected components and pre-cleanup all run"),
    Workload("securities", "securities", "distilbert128_all",
             "ID Overlap and Issuer Match blocking, no Token Overlap and no "
             "pre-cleanup: the bypass workload for those layers"),
)}


@dataclass
class Inputs:
    records: object                 # DataFrame, split column added
    securities: object | None       # companion table for company ID blocking
    company_groups: object | None   # (id, group) for Issuer Match blocking
    truth: pd.DataFrame             # (id, gt) of ``records``
    gamma: int
    mu: int
    sizes: dict


def generate(seed: int, groups: int = GROUPS
             ) -> tuple[pd.DataFrame, pd.DataFrame]:
    """(companies, securities) records for one seed argument."""
    from repro.entitygen import dataset as gen
    return gen.synthetic(groups, seed=GEN_SEED + seed)


def prepare(spark, workload: Workload, seed: int,
            groups: int = GROUPS) -> Inputs:
    """Generate one workload's inputs and checkpoint them in Spark."""
    from repro.graph.connected_components import materialize
    from repro.matching.splits import add_split
    from repro.tables.common import THRESHOLDS

    companies, securities = generate(seed, groups)

    def load(pdf: pd.DataFrame):
        return materialize(add_split(spark.createDataFrame(pdf),
                                     seed=SPLIT_SEED))

    if workload.kind == "companies":
        records_pdf, sec, company_groups = companies, load(securities), None
    else:
        # Ground-truth company groups feed Issuer Match, so this cell does
        # not depend on a companies run.
        records_pdf, sec = securities, None
        company_groups = materialize(spark.createDataFrame(
            companies[["record_id", "gt_group"]].rename(
                columns={"record_id": "id", "gt_group": "group"})))
    gamma, mu = THRESHOLDS[f"synthetic_{workload.kind}"]
    return Inputs(
        records=load(records_pdf), securities=sec,
        company_groups=company_groups,
        truth=records_pdf[["record_id", "gt_group"]].rename(
            columns={"record_id": "id", "gt_group": "gt"}),
        gamma=gamma, mu=mu,
        sizes={"groups": groups, "companies": len(companies),
               "securities": len(securities), "records": len(records_pdf)},
    )


def train_on(records, workload: Workload):
    """Fit the workload's model on ``records`` (the seed-0 inputs, the
    Table-4 cell's own training data, whatever the run's seed)."""
    from repro.matching import model as M
    # Looked up at call time, so a tracer's patch applies.
    return M.train(records, workload.kind, M.MODELS[workload.model],
                   seed=TRAIN_SEED)


def model_key(src: Path, workload: Workload) -> str:
    """Changes with every program or benchmark source file and every
    training input."""
    h = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for p in [*sorted((src / "repro").rglob("*.py")),
              *sorted(here.glob("*.py"))]:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    h.update(repr((workload, GROUPS, GEN_SEED, SPLIT_SEED,
                   TRAIN_SEED)).encode())
    return h.hexdigest()[:16]


def ensure_model(spark, workload: Workload, src: Path,
                 work: Path) -> tuple[Path, float | None]:
    """Directory of the saved model, and the seconds spent building it if
    this call had to (None when it was already there).

    The model is trained once per checkout and program version, like a
    build step. Training is traced, and its per-layer metrics are saved
    with the model for the traced runs to report.
    """
    import layers

    path = work / "models" / f"{workload.name}-{model_key(src, workload)}"
    if path.exists():
        return path, None
    t0 = time.perf_counter()
    records = prepare(spark, workload, 0).records
    with layers.tracer(spark) as tr:
        t1 = time.perf_counter()
        model = train_on(records, workload)
        train_s = time.perf_counter() - t1
    metrics = {**layers.train_metrics(tr.under(layers.TRAIN)),
               "matching.train.s": train_s}
    partial = path.with_name(path.name + ".partial")
    model.lr.write().overwrite().save(str(partial / "lr"))
    (partial / "train_metrics.json").write_text(json.dumps(metrics))
    partial.rename(path)
    return path, time.perf_counter() - t0


def load_model(path: Path, workload: Workload):
    from pyspark.ml.classification import LogisticRegressionModel
    from repro.matching import model as M
    return M.TrainedModel(M.MODELS[workload.model],
                          LogisticRegressionModel.load(str(path / "lr")), 0.0)


def train_metrics(path: Path) -> dict:
    return json.loads((path / "train_metrics.json").read_text())


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set, else half the host memory clamped to
    2-8g: the value the repository's test command hands the root
    ``conftest.py``."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    with open("/proc/meminfo") as f:
        kib = next(int(line.split()[1]) for line in f
                   if line.startswith("MemTotal:"))
    return f"{min(8, max(2, kib // 2097152))}g"


def start_session(src: Path, work: Path):
    """A local SparkSession configured like the root ``conftest.py``, with
    every scratch file kept under ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    # Every JVM, the spark-submit launcher included, keeps its temporary
    # and perf-data files out of the system temporary directory.
    os.environ["JAVA_TOOL_OPTIONS"] = (
        f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
    nproc = len(os.sched_getaffinity(0))
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{nproc}]",
        f"--driver-memory {driver_memory()}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={shlex.quote(str(work / 'spark'))}",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and its JVM, and wait until the JVM has exited."""
    from pyspark import SparkContext
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()   # the gateway JVM exits at EOF on its stdin
        proc.wait(timeout=60)
