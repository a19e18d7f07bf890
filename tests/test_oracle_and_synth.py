"""DuckDB oracle sanity checks on the generated synthetic company and
security records."""
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent


class TestOracleOnSyntheticRecords:
    def test_records_per_source_aggregate(self, spark, companies_pdf):
        c = spark.createDataFrame(companies_pdf)
        got = c.groupBy("source_id").agg(
            F.count("*").alias("cnt"),
            F.countDistinct("gt_group").alias("groups"),
        )
        assert_equivalent(
            got,
            """SELECT source_id, COUNT(*) AS cnt,
                      COUNT(DISTINCT gt_group) AS groups
               FROM c GROUP BY source_id""",
            c=companies_pdf,
        )

    def test_securities_companies_join(self, spark, companies_pdf,
                                       securities_pdf):
        c = spark.createDataFrame(companies_pdf)
        s = spark.createDataFrame(securities_pdf)
        got = (
            s.join(c.select(F.col("record_id").alias("company_record_id"),
                            F.col("source_id").alias("company_source")),
                   "company_record_id")
            .groupBy("company_source")
            .agg(F.count("*").alias("cnt"),
                 F.sum((F.col("source_id") == F.col("company_source"))
                       .cast("long")).alias("same_source"))
        )
        assert_equivalent(
            got,
            """SELECT c.source_id AS company_source, COUNT(*) AS cnt,
                      SUM(CAST(s.source_id = c.source_id AS BIGINT))
                          AS same_source
               FROM s JOIN c ON s.company_record_id = c.record_id
               GROUP BY c.source_id""",
            c=companies_pdf, s=securities_pdf,
        )
