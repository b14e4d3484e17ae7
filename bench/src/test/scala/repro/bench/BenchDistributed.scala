package repro.bench

import repro.SparkSpec

/** Scalability of the distributed TDB++ pipeline on the heavy datasets,
  * defined in [[Tables.dist]].
  */
class BenchDistributed extends SparkSpec {

  test("Distributed TDB++ on heavy datasets (k=5)") {
    assert(Tables.dist(spark).nonEmpty)
  }
}
