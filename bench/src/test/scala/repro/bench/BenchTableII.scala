package repro.bench

import repro.SparkSpec

/** Paper Table II — dataset statistics, defined in [[Tables.tableII]]. */
class BenchTableII extends SparkSpec {

  test("Table II: dataset statistics") {
    assert(Tables.tableII(spark).nonEmpty)
  }
}
