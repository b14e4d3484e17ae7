package repro.bench

import repro.SparkSpec

/** Paper Table III — cover size and runtime of DARC-DV, BUR+ and TDB++ at
  * k = 5, defined in [[Tables.tableIII]].
  */
class BenchTableIII extends SparkSpec {

  test("Table III: cover size and runtime at k=5") {
    assert(Tables.tableIII(spark).nonEmpty)
  }
}
