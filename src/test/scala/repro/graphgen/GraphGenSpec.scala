package repro.graphgen

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class GraphGenSpec extends SparkSpec {

  test("uniform generator: no self-loops, no duplicate edges, ids in range") {
    val df = GraphGen.uniform(spark, n = 500, m = 2000, seed = 1).cache()
    assert(df.filter(col("src") === col("dst")).count() == 0)
    assert(df.count() == df.dropDuplicates("src", "dst").count())
    val mx = df.agg(max(greatest(col("src"), col("dst")))).head.getLong(0)
    val mn = df.agg(min(least(col("src"), col("dst")))).head.getLong(0)
    assert(mx < 500 && mn >= 0)
  }

  test("uniform generator is deterministic in (n, m, seed)") {
    val a = GraphGen.uniform(spark, 300, 1000, seed = 5).collect().toSet
    val b = GraphGen.uniform(spark, 300, 1000, seed = 5).collect().toSet
    assert(a == b)
  }

  test("different seeds give different graphs") {
    val a = GraphGen.uniform(spark, 300, 1000, seed = 5).collect().toSet
    val b = GraphGen.uniform(spark, 300, 1000, seed = 6).collect().toSet
    assert(a != b)
  }

  test("uniform generator hits roughly the requested edge count") {
    val m = GraphGen.uniform(spark, 2000, 5000, seed = 2).count()
    assert(m > 4700 && m <= 5000) // dedup removes only a few collisions
  }

  test("power-law generator: max degree far above average (skew)") {
    val df = GraphGen.powerLaw(spark, n = 2000, m = 20000, seed = 3).cache()
    val degs = df.groupBy("src").count()
    val maxDeg = degs.agg(max("count")).head.getLong(0)
    val avgDeg = df.count().toDouble / 2000
    assert(maxDeg > 10 * avgDeg, s"max=$maxDeg avg=$avgDeg")
  }

  test("power-law generator: no self-loops, valid range") {
    val df = GraphGen.powerLaw(spark, 1000, 8000, seed = 4).cache()
    assert(df.filter(col("src") === col("dst")).count() == 0)
    assert(df.filter(col("src") < 0 || col("src") >= 1000 ||
                     col("dst") < 0 || col("dst") >= 1000).count() == 0)
  }

  test("corePeriphery: deterministic, no self-loops, ids in range") {
    val a = GraphGen.corePeriphery(spark, n = 2000, nCore = 300, mCore = 3000,
      mPeri = 8000, seed = 4).collect().toSet
    val b = GraphGen.corePeriphery(spark, n = 2000, nCore = 300, mCore = 3000,
      mPeri = 8000, seed = 4).collect().toSet
    assert(a == b)
    assert(a.forall { r =>
      val s = r.getLong(0); val d = r.getLong(1)
      s >= 0 && s < 2000 && d >= 0 && d < 2000 && s != d
    })
  }

  test("corePeriphery: a dense cyclic core exists (cycle cover is non-trivial)") {
    val edges = GraphGen.corePeriphery(spark, n = 1000, nCore = 150, mCore = 2500,
      mPeri = 4000, seed = 5)
    val g = repro.core.DirectedGraph.fromEdges(
      edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq)
    val cover = repro.core.TopDown.cover(g, 5)
    assert(cover.size > 20, s"expected a forced core cover, got ${cover.size}")
    assert(cover.size < g.n / 2)
  }

  test("corePeriphery: periphery is mostly forward (few short periphery cycles)") {
    // With fb = 1.0 the periphery is a DAG: every cover vertex must come
    // from the interlocked core.
    val edges = GraphGen.corePeriphery(spark, n = 1500, nCore = 100, mCore = 1500,
      mPeri = 6000, fb = 1.0, seed = 6)
    val g = repro.core.DirectedGraph.fromEdges(
      edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq)
    val cover = repro.core.TopDown.cover(g, 5)
    assert(cover.size <= 100, s"cover ${cover.size} exceeds core size")
  }

  test("degree statistics agree with the DuckDB oracle") {
    val edges = GraphGen.uniform(spark, 200, 800, seed = 7)
    val sparkStats = edges.groupBy("src")
      .agg(count(lit(1)) as "outdeg")
      .agg(count(lit(1)) as "n_sources",
           sum("outdeg").cast("double") as "total_edges",
           max("outdeg").cast("double") as "max_outdeg")
    Oracle.assertEquivalent(
      sparkStats,
      """SELECT count(*) AS n_sources,
        |       CAST(sum(outdeg) AS DOUBLE) AS total_edges,
        |       CAST(max(outdeg) AS DOUBLE) AS max_outdeg
        |FROM (SELECT src, count(*) AS outdeg FROM edges GROUP BY src)""".stripMargin,
      "edges" -> edges)
  }

  test("datasets registry: all specs generate non-empty graphs") {
    // Tiny override through the generator API itself (full specs are bench-scale).
    val spec = Datasets.byName("WKV-S")
    assert(spec.mimics == "Wiki-Vote")
    assert(Datasets.all.map(_.name).distinct.size == Datasets.all.size)
    assert(Datasets.speedup.map(_.name) == Seq("WKV-S", "WGO-S"))
  }

  test("datasets registry rejects unknown names") {
    intercept[IllegalArgumentException] { Datasets.byName("NOPE") }
  }

  test("dataset stand-ins expose their paper counterpart") {
    assert(Datasets.all.forall(_.mimics.nonEmpty))
    assert(Datasets.all.count(_.heavyOnly) == 2)
  }
}
