package repro.coverbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graphgen.GraphGen

/** One benchmark input: a [[GraphGen.corePeriphery]] graph, the hop bound
  * `k`, and whether the cover runs through the sequential TDB++ path or
  * through [[repro.dist.DistributedTDB]].
  *
  * The seed is the benchmark's own argument; the program only ever sees the
  * generated edges. `scale` shrinks every size for smoke runs.
  */
final case class Workload(
    name: String,
    n: Long,
    nCore: Long,
    mCore: Long,
    m: Long,
    fb: Double,
    mRecip: Long,
    k: Int,
    distributed: Boolean,
) {
  def scaled(f: Double): Workload = {
    def sc(x: Long) = math.max(16L, math.round(x * f))
    copy(n = sc(n), nCore = sc(nCore), mCore = sc(mCore), m = sc(m), mRecip = sc(mRecip))
  }

  def edges(spark: SparkSession, seed: Long): DataFrame =
    GraphGen.corePeriphery(spark, n, nCore, mCore, math.max(0L, m - mCore),
      fb = fb, mRecip = mRecip, seed = seed)

  def params: Seq[(String, Any)] = Seq(
    "n" -> n, "nCore" -> nCore, "mCore" -> mCore, "m" -> m, "fb" -> fb,
    "mRecip" -> mRecip, "k" -> k, "minLen" -> Workload.MinLen,
    "path" -> (if (distributed) "DistributedTDB.cover" else "DirectedGraph.fromEdges+TopDown.cover(TDB++)"),
  )
}

object Workload {
  val MinLen = 3

  /** Shapes follow the Table II stand-ins (DESIGN.md), with every size cut
    * by the same factor so that densities stay: fringe-k5 is LJ-S-like
    * (mostly acyclic fringe) at 3/40 scale, dist-k5 is WGO-S-like at 1/16
    * scale. Why these sizes: coverbench/README.md.
    */
  val all: Seq[Workload] = Seq(
    Workload("fringe-k5", n = 15000, nCore = 900, mCore = 10800, m = 165000,
      fb = 0.99, mRecip = 1125, k = 5, distributed = false),
    Workload("dist-k5", n = 1875, nCore = 156, mCore = 1562, m = 20625,
      fb = 0.99, mRecip = 81, k = 5, distributed = true),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))
}
