package repro.bench

import repro.SparkSpec

/** Paper Figs. 6/7 (runtime and cover size while k varies) and Figs. 8/9
  * (BUR vs BUR+ pruning effect) as tables, defined in [[Tables.fig67]] and
  * [[Tables.fig89]].
  */
class BenchKSweep extends SparkSpec {

  test("Fig 6/7 table: runtime and cover size, k=3..7") {
    assert(Tables.fig67(spark).nonEmpty)
  }

  test("Fig 8/9 table: BUR vs BUR+ pruning effect, k=3..6") {
    assert(Tables.fig89(spark).nonEmpty)
  }
}
