"""The one local SparkSession configuration, shared by the tests and the
spark-submit jobs so both run identical plans.

Master, driver memory and UI settings are read when the JVM launches, not
from SparkConf, so :func:`get_spark` puts them in ``PYSPARK_SUBMIT_ARGS``
before it builds the first session. Settings honoured after launch
(shuffle partitions, Arrow, no broadcast joins, so blocking joins exercise
real shuffles) go on the builder.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def _driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set, else half the host memory clamped to
    2-8g (2g where ``/proc/meminfo`` cannot be read)."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f
                       if line.startswith("MemTotal:"))
    except (OSError, StopIteration):
        return "2g"
    return f"{min(8, max(2, kib // 2097152))}g"


def get_spark(app: str) -> SparkSession:
    """The local SparkSession (created on first call, reused after)."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {_driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
