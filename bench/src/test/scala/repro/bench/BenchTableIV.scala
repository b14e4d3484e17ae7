package repro.bench

import repro.SparkSpec

/** Paper Table IV — TDB++ cover size with and without 2-cycles at k = 5,
  * defined in [[Tables.tableIV]].
  */
class BenchTableIV extends SparkSpec {

  test("Table IV: cover size with and without 2-cycles, k=5") {
    assert(Tables.tableIV(spark).nonEmpty)
  }
}
