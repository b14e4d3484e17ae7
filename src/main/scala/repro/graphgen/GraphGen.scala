package repro.graphgen

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType

/** Deterministic synthetic directed-graph generators (DataFrame API).
  *
  * The paper evaluates on SNAP/KONECT graphs (Wiki-Vote, Gnutella, webGoogle,
  * ...). This container is offline, so each real dataset is substituted by a
  * synthetic generator whose degree structure mimics the original's family
  * (see DESIGN.md § dataset substitutions):
  *
  *  - [[uniform]]   — Erdős–Rényi-style: peer-to-peer / email graphs
  *  - [[powerLaw]]  — Zipf-skewed endpoints with a rich-club core: social /
  *                    vote / AS-topology graphs
  *  - [[corePeriphery]] — dense cyclic core plus a rank-forward fringe: the
  *                    Table II–IV dataset stand-ins
  *
  * Every generator returns DataFrame(src: Long, dst: Long) with vertices in
  * [0, n), no self-loops, deduplicated; output is a pure function of
  * (n, m, seed) so the DuckDB oracle and repeated runs see identical data.
  */
object GraphGen {

  private def finish(df: DataFrame): DataFrame =
    df.filter(col("src") =!= col("dst")).dropDuplicates("src", "dst")

  /** Bijectively remap vertex ids with an affine permutation v ↦ (a·v + b)
    * mod n. Generators express structure through ranks (rank 0 = top hub,
    * forward bias = ascending ranks); real datasets' ids are arbitrary
    * relative to that structure, and cover algorithms process vertices in
    * id order — without the scramble, rank order would leak into the
    * processing order and systematically bias the top-down cover.
    */
  private def scramble(df: DataFrame, n: Long, seed: Long): DataFrame = {
    var a = (0.6180339887 * n).toLong | 1L // odd, ≈ golden-ratio fraction of n
    while (BigInt(a).gcd(BigInt(n)) != 1) a += 2
    val b = math.abs(seed * 31 + 17) % n
    df.select(
      pmod(col("src") * a + b, lit(n)) as "src",
      pmod(col("dst") * a + b, lit(n)) as "dst",
    )
  }

  /** Orient a `forwardBias` fraction of edges from the lower to the higher
    * vertex id. Real directed graphs (votes, citations, web links) are
    * mostly "rank-forward" and therefore largely acyclic — cycles need the
    * minority of back edges, which concentrates the cyclic core the way the
    * paper's datasets exhibit (covers are a few percent of |V|, not half).
    * The random draw is materialised in its own projection first: rand() is
    * re-evaluated per expression occurrence otherwise.
    */
  private def forwardBias(df: DataFrame, fb: Double, seed: Long): DataFrame = {
    if (fb <= 0) df
    else {
      val drawn = df.select(col("src"), col("dst"), (rand(seed) < fb) as "fwd")
      drawn.select(
        when(col("fwd"), least(col("src"), col("dst"))).otherwise(col("src")) as "src",
        when(col("fwd"), greatest(col("src"), col("dst"))).otherwise(col("dst")) as "dst",
      )
    }
  }

  /** ~m uniform random directed edges over n vertices. */
  def uniform(spark: SparkSession, n: Long, m: Long, fb: Double = 0.0,
              seed: Long = 7): DataFrame = {
    finish(scramble(forwardBias(
      spark.range(m).select(
        (rand(seed) * n).cast(LongType) as "src",
        (rand(seed + 1) * n).cast(LongType) as "dst",
      ), fb, seed + 9), n, seed))
  }

  /** ~m edges with Zipf(alpha)-distributed endpoints (vertex 0 = top hub).
    * Both endpoints share the hub ranking, producing the "rich club" of
    * interconnected hubs — and hence many short cycles — that social graphs
    * exhibit. `uniformMix` blends in uniform endpoints to keep the tail
    * connected.
    */
  def powerLaw(spark: SparkSession, n: Long, m: Long, alpha: Double = 1.1,
               uniformMix: Double = 0.3, fb: Double = 0.0,
               seed: Long = 11): DataFrame = {
    def zipfCol(s: Long) = {
      val rank = pow(lit(1.0) / (rand(s) + lit(1e-12)), lit(1.0 / alpha)).cast(LongType) - 1
      least(lit(n - 1), greatest(lit(0L), rank))
    }
    def endpoint(s: Long) =
      when(rand(s + 100) < uniformMix, (rand(s + 200) * n).cast(LongType))
        .otherwise(zipfCol(s))
    finish(scramble(forwardBias(
      spark.range(m).select(
        endpoint(seed) as "src",
        endpoint(seed + 1) as "dst",
      ), fb, seed + 9), n, seed))
  }

  /** Core–periphery digraph — the structure of real social/web graphs: a
    * DENSE random directed core (the giant SCC, where all the short cycles
    * interlock and the cycle cover is forced to a stable fraction of the
    * core regardless of algorithm) plus a large sparse periphery whose
    * edges are mostly rank-forward (≈ acyclic fringe). Core vertices are
    * ranks [0, nCore) before scrambling; half the periphery edges attach to
    * the core (hubs), half are global.
    *
    * This is the generator behind the Table II/III/IV dataset stand-ins:
    * it reproduces the paper's cost regime (bounded-DFS baselines struggle
    * inside the dense core; the BFS-filter discards the fringe) and its
    * cover-size regime (TDB++ within a few percent of BUR+).
    */
  def corePeriphery(spark: SparkSession, n: Long, nCore: Long, mCore: Long,
                    mPeri: Long, fb: Double = 0.9, coreAttach: Double = 0.15,
                    pRecip: Double = 0.0, mRecip: Long = 0, seed: Long = 17): DataFrame = {
    val core = spark.range(mCore).select(
      (rand(seed) * nCore).cast(LongType) as "src",
      (rand(seed + 1) * nCore).cast(LongType) as "dst",
    )
    val periDraws = spark.range(mPeri).select(
      (rand(seed + 2) * n).cast(LongType) as "src",
      (rand(seed + 3) * nCore).cast(LongType) as "coreDst",
      (rand(seed + 4) * n).cast(LongType) as "globalDst",
      rand(seed + 5) as "rPick",
    )
    val peri = periDraws.select(
      col("src"),
      when(col("rPick") < coreAttach, col("coreDst")).otherwise(col("globalDst")) as "dst",
    )
    val base = core.union(forwardBias(peri, fb, seed + 9))
    // Reciprocate a pRecip fraction of edges: real email/social/web graphs
    // are heavily reciprocal, which is what drives the paper's Table IV
    // (with-2-cycle covers several times larger). In the sparse periphery a
    // twin mostly adds ONLY the 2-cycle (forward u⇝v return paths are
    // rare), so the minLen=3 cover stays almost unchanged — matching the
    // paper's observation that 2-cycles are best handled separately.
    val withRecip =
      if (pRecip <= 0) base
      else {
        val drawn = base.select(col("src"), col("dst"), (rand(seed + 13) < pRecip) as "tw")
        drawn.select(col("src"), col("dst")).union(
          drawn.filter(col("tw")).select(col("dst") as "src", col("src") as "dst"))
      }
    // Rank-LOCAL reciprocal pairs (u ↔ u+1..u+3): in a dense graph a
    // random reciprocal twin inevitably also spawns ≥3-cycles (forward
    // return paths are plentiful), inflating the minLen=3 cover as well;
    // local pairs have almost no intermediate ranks to route through, so
    // they contribute (almost) pure 2-cycles — the structure behind the
    // paper's Table IV ratios on reciprocity-heavy graphs.
    val withLocal =
      if (mRecip <= 0) withRecip
      else {
        val pairDraws = spark.range(mRecip).select(
          (rand(seed + 21) * n).cast(LongType) as "u",
          (rand(seed + 22) * 3).cast(LongType) as "gap",
        )
        val pairs = pairDraws
          .select(col("u") as "src", least(lit(n - 1), col("u") + 1 + col("gap")) as "dst")
        withRecip.union(pairs).union(pairs.select(col("dst") as "src", col("src") as "dst"))
      }
    finish(scramble(withLocal, n, seed))
  }
}
