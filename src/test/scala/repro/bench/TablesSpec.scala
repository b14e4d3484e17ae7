package repro.bench

import repro.SparkSpec
import repro.core.TopDown
import repro.graphgen.DatasetSpec
import repro.testkit.TestGraphs

/** Runs every table's row builder on the paper's Figure 1 graph at k = 5:
  * each row is as wide as its header, and each TDB++ cover-size cell is the
  * sequential TDB++ cover size.
  */
class TablesSpec extends SparkSpec {

  private val g = TestGraphs.figure1
  private val k = 5
  private val spec = DatasetSpec("FIG1", "Figure 1", n = g.n, nCore = g.n, mCore = g.m,
    m = g.m, forwardBias = 0.0, mRecip = 0, heavyOnly = false)
  private lazy val tdbSize = TopDown.cover(g, k).size.toString

  private def checkRow(header: Seq[String], row: Seq[String], tdbSizeColumn: String*): Unit = {
    assert(row.length == header.length, s"row $row vs header $header")
    tdbSizeColumn.foreach(c => assert(row(header.indexOf(c)) == tdbSize, s"$c in $row"))
  }

  test("Table II row") {
    checkRow(Tables.tableIIHeader, Tables.tableIIRow(spec, g))
  }

  test("Table III row") {
    checkRow(Tables.tableIIIHeader, Tables.tableIIIRow(spec, g, k), "TDB++ size")
  }

  test("Table IV row") {
    checkRow(Tables.tableIVHeader, Tables.tableIVRow(spec.name, g, k), "No 2-cycle")
  }

  test("Fig 6/7 row") {
    checkRow(Tables.fig67Header, Tables.fig67Row(spec.name, g, k), "TDB++ size")
  }

  test("Fig 8/9 row") {
    checkRow(Tables.fig89Header, Tables.fig89Row(spec.name, g, k))
  }

  test("Fig 10 row") {
    checkRow(Tables.fig10Header, Tables.fig10Row(spec.name, g, k), "size")
  }

  test("DIST row") {
    import spark.implicits._
    val edges = g.edgeSeq.toDF("src", "dst")
    checkRow(Tables.distHeader, Tables.distRow(spark, spec.name, edges, k), "cover")
  }
}
