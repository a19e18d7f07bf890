import sys

import pytest

from repro.session import get_spark


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session."""
    s = get_spark("repro")
    print(
        f"[conftest] spark.driver.memory="
        f"{s.sparkContext.getConf().get('spark.driver.memory')} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
