package repro.dist

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{CoverResult, DirectedGraph, TopDown}

/** Distributed Top-Down hop-constrained cycle cover.
  *
  * The Spark rendition of the paper's TDB++ for graphs that dwarf a single
  * search process: bulk dataflow shrinks the graph to its cyclic core, the
  * exact minimal-cover pass then runs on the (orders-of-magnitude smaller)
  * core.
  *
  *  1. DataFrame trim + k-bounded closed-walk filter
  *     ([[ClosedWalkFilter]], the distributed Algorithm 11),
  *  2. collect the induced core and run sequential TDB++
  *     ([[repro.core.TopDown]]) over it in ascending vertex-id order.
  *
  * The result is EXACTLY the cover sequential TDB++ would compute on the
  * full graph (same order): filtered-out vertices are on no constrained
  * cycle, so their validation would fail anyway, and no constrained cycle
  * loses a vertex or an edge in the core — validity and minimality carry
  * over unchanged (tested in DistributedTDBSpec).
  */
object DistributedTDB {

  final case class DistCover(cover: DataFrame, coreVertices: Long, coreEdgeCount: Long,
                             result: CoverResult)

  def cover(spark: SparkSession, edges: DataFrame, k: Int, minLen: Int = 3,
            maxCoreEdges: Long = 50_000_000L): DistCover = {
    import spark.implicits._
    val core = ClosedWalkFilter.coreEdges(ClosedWalkFilter.clean(edges), k).persist()
    val coreEdgeCount = core.count()
    require(coreEdgeCount <= maxCoreEdges,
      s"cyclic core still has $coreEdgeCount edges (> $maxCoreEdges); " +
        "raise maxCoreEdges or shrink k")
    val coreVertices = core.select($"src" as "v").union(core.select($"dst" as "v"))
      .distinct().count()

    val edgePairs = core.as[(Long, Long)].collect()
    val g = DirectedGraph.fromEdges(edgePairs.toSeq)
    val res = TopDown.cover(g, k, minLen, TopDown.TDBPlusPlus)
    core.unpersist()
    val coverDf = spark.createDataset(res.cover.toSeq).toDF("v")
    DistCover(coverDf, coreVertices, coreEdgeCount, res)
  }
}
