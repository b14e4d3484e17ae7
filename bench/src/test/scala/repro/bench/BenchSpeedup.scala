package repro.bench

import repro.SparkSpec

/** Paper Fig. 10 (Top-Down technique speed-ups) as a table, defined in
  * [[Tables.fig10]].
  */
class BenchSpeedup extends SparkSpec {

  test("Fig 10 table: Top-Down technique speed-ups, k=3..7") {
    assert(Tables.fig10(spark).nonEmpty)
  }
}
