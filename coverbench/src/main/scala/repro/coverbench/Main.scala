package repro.coverbench

import java.nio.file.Paths

import scala.collection.immutable.{ArraySeq, ListMap}
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.SparkException
import org.json4s.DefaultFormats
import org.json4s.jackson.Serialization
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core.{CoverResult, CoverValidator, DirectedGraph, SearchBudget, TopDown}
import repro.dist.{ClosedWalkFilter, DistributedTDB}

/** One benchmark run of one workload, in one JVM: a closed loop with a
  * single client that computes one cover at a time, then checks the cover.
  *
  * Every result goes to standard output as one `@@coverbench {json}` line
  * per event (run info, set-up, identity reference, each operation, the
  * check, done); `coverbench/run.py` turns the events into the metrics.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *      [--scale <f>] [--local-dir <dir>] [--spans-out <file>]
  * }}}
  */
object Main {
  val Master = "local[4]"
  val SetupReps = 3
  val MinTimedOps = 3
  val WarmupCovers = 2
  /** Share of the run's seconds spent on covers; checks get the rest. */
  val CoverShare = 0.55
  val WarmupChecks = 2
  val MinChecks = 3
  /** Seconds of checks after each cover of the distributed path. */
  val CheckBurstS = 0.4
  val MaxChecks = 30
  val untraced = new Tracer(enabled = false)

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        scale: Double, localDir: Option[String], spansOut: Option[String])

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble,
      need("trace") == "1", kv.get("scale").map(_.toDouble).getOrElse(1.0),
      kv.get("local-dir"), kv.get("spans-out"))
  }

  def emit(fields: (String, Any)*): Unit = {
    println("@@coverbench " + Serialization.write(ListMap(fields: _*))(DefaultFormats))
    Console.out.flush()
  }

  def main(argv: Array[String]): Unit = {
    val t0 = System.nanoTime()
    val a = parse(argv)
    val w = Workload.byName(a.workload).scaled(a.scale)
    val b = SparkSession.builder().master(Master).appName(s"coverbench-${w.name}")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", 4) // one per core of local[4]
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
    a.localDir.foreach(d => b.config("spark.local.dir", d))
    val spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val sparkStartS = (System.nanoTime() - t0) / 1e9
    try {
      val tracer = new Tracer(a.trace)
      new BenchRun(spark, w, a, tracer).run(sparkStartS)
      a.spansOut.filter(_ => a.trace).foreach(p => tracer.write(Paths.get(p)))
      emit("event" -> "done", "spans" -> a.spansOut.filter(_ => a.trace))
    } finally spark.stop()
  }

  /** Failure reason of one operation, by kind. */
  def reason(e: Throwable): String = {
    val chain = Iterator.iterate(e)(_.getCause).takeWhile(_ != null).toSeq
    def msg(t: Throwable) = Option(t.getMessage).getOrElse("").linesIterator.nextOption().getOrElse("")
    if (chain.exists(_.isInstanceOf[SearchBudget.Exceeded])) "search_budget: " + msg(e)
    else if (chain.exists(_.isInstanceOf[OutOfMemoryError])) "oom: " + msg(e)
    else if (chain.exists(_.isInstanceOf[StackOverflowError])) "stack_overflow"
    else if (chain.exists(t => msg(t).contains("No space left on device"))) "disk_full: " + msg(e)
    else if (chain.exists(_.isInstanceOf[SparkException])) "spark_failure: " + msg(e)
    else s"${e.getClass.getSimpleName}: ${msg(e)}"
  }.take(300)
}

/** Thrown by a check that rejects an operation's output. */
final class CheckFailed(msg: String) extends RuntimeException(msg)

final class BenchRun(spark: SparkSession, w: Workload, a: Main.Args, tracer: Tracer) {
  import Main.emit
  import spark.implicits._

  private val k = w.k
  private val MinLen = Workload.MinLen

  private var pairs: ArraySeq[(Long, Long)] = ArraySeq.empty
  private var edgeDf: DataFrame = _
  private var fullGraph: DirectedGraph = _
  private var counters: SparkCounters = _

  def run(sparkStartS: Double): Unit = {
    emit("event" -> "info", "workload" -> w.name, "seed" -> a.seed, "trace" -> a.trace,
      "scale" -> a.scale, "seconds" -> a.seconds, "params" -> w.params.toMap,
      "master" -> spark.sparkContext.master, "spark_version" -> spark.version,
      "default_parallelism" -> spark.sparkContext.defaultParallelism,
      "java_version" -> System.getProperty("java.version"),
      "java_vm" -> System.getProperty("java.vm.name"),
      "scala_version" -> scala.util.Properties.versionNumberString,
      "cores" -> Runtime.getRuntime.availableProcessors, "max_heap_mb" -> Jvm.maxHeapMb)

    // Set-up: generate the edges from the seed and materialise them, several
    // times; the last materialisation is the input every operation uses.
    val genS = (1 to Main.SetupReps).map { _ =>
      val t = System.nanoTime()
      materialise()
      (System.nanoTime() - t) / 1e9
    }
    if (w.distributed) pairs = ArraySeq.unsafeWrapArray(edgeDf.as[(Long, Long)].collect())
    emit("event" -> "setup", "spark_start_s" -> sparkStartS, "generate_s" -> genS,
      "edges" -> pairs.length)

    // The graph the covers are checked against, and, for the distributed
    // path, the sequential cover it must equal (DESIGN §3). Untimed.
    if (w.distributed) {
      fullGraph = DirectedGraph.fromEdges(pairs)
      val ref = TopDown.cover(fullGraph, k, MinLen, TopDown.TDBPlusPlus)
      check(fullGraph, ref.cover, Main.untraced) // also compiles the checker before timing
      emit("event" -> "identity", "cover_size" -> ref.size, "digest" -> CoverDigest(ref.cover))
    }

    // Sequential paths: covers first, then checks. The checker shares the
    // search kernels with TopDown and passes them other `allowed` functions,
    // so checks run in between would change how the JIT compiles the
    // kernels the covers use. Each phase warms up first and then runs for
    // its share of the seconds. The distributed path's covers are Spark-bound
    // and long, so a short burst of checks follows each of them instead: its
    // check samples then spread over the whole run.
    var i = 0
    // Untraced runs of the distributed path skip the warm-up: its first
    // operation costs a whole extra pipeline, and the median of three
    // timed ones already drops it.
    val warmups = if (!w.distributed) Main.WarmupCovers else if (a.trace) 1 else 0
    for (_ <- 1 to warmups) { coverOp(i, "warmup"); i += 1 }
    val t0 = System.nanoTime()
    var done = 0
    while (done < Main.MinTimedOps || (System.nanoTime() - t0) / 1e9 < a.seconds * Main.CoverShare) {
      // Traced operations alternate with untraced ones, starting untraced,
      // so the tracing overhead is not confounded with warm-up.
      coverOp(i, if (a.trace && done % 2 == 1) "traced" else "timed")
      if (w.distributed) checks(0, 1, Main.CheckBurstS)
      i += 1; done += 1
    }
    if (!w.distributed) checks(Main.WarmupChecks, Main.MinChecks, a.seconds * (1 - Main.CoverShare))
    emitCheck()
  }

  private def materialise(): Unit =
    if (w.distributed) {
      if (edgeDf != null) edgeDf.unpersist(blocking = true)
      edgeDf = w.edges(spark, a.seed).persist(StorageLevel.MEMORY_ONLY)
      edgeDf.count()
    } else {
      pairs = ArraySeq.empty
      pairs = ArraySeq.unsafeWrapArray(w.edges(spark, a.seed).as[(Long, Long)].collect())
    }

  /** The graph and cover of the last successful operation; every
    * operation's cover must equal it (the summary compares digests).
    */
  private var lastGraph: DirectedGraph = _
  private var lastCover: Array[Long] = _

  private def coverOp(i: Int, phase: String): Unit = {
    val traced = phase == "traced"
    val span = if (traced) tracer else Main.untraced
    tracer.startOp(i)
    if (traced && w.distributed) counters = SparkCounters.register(spark.sparkContext)
    Jvm.resetPeaks()
    val (gc0n, gc0s) = Jvm.gc
    try {
      val t0 = System.nanoTime()
      val (res, g, dist) = span.span("cover") {
        if (w.distributed) {
          val dc = DistributedTDB.cover(spark, edgeDf, k)
          (dc.result, fullGraph, Some(dc))
        } else {
          val g = span.span("ingest.fromEdges")(DirectedGraph.fromEdges(pairs))
          val r = span.span("topdown.cover")(TopDown.cover(g, k, MinLen, TopDown.TDBPlusPlus))
          (r, g, None)
        }
      }
      val coverS = (System.nanoTime() - t0) / 1e9
      val peak = Jvm.peakHeapMb
      val (gc1n, gc1s) = Jvm.gc
      lastGraph = g
      lastCover = res.cover
      val layers =
        if (traced) layerMetrics(i, res, g, dist, peak, gc1n - gc0n, gc1s - gc0s) else Map.empty
      emit("event" -> "op", "op" -> i, "phase" -> phase, "ok" -> true, "cover_s" -> coverS,
        "cover_size" -> res.size, "digest" -> CoverDigest(res.cover), "n" -> g.n, "m" -> g.m,
        "layers" -> layers)
    } catch {
      case e: CheckFailed => fail(i, phase, e.getMessage)
      case e: Throwable if NonFatal(e) || e.isInstanceOf[OutOfMemoryError] ||
          e.isInstanceOf[StackOverflowError] =>
        fail(i, phase, Main.reason(e))
    } finally if (counters != null) { spark.sparkContext.removeSparkListener(counters); counters = null }
  }

  private val checkTimes = ArrayBuffer.empty[Double]
  private var checkFailure: Option[String] = None

  /** Check the last cover against the full input graph: `warmups` untimed
    * times, then timed until `forS` seconds pass, at least `minChecks` times.
    */
  private def checks(warmups: Int, minChecks: Int, forS: Double): Unit =
    if (lastCover != null && checkFailure.isEmpty) try {
      for (_ <- 1 to warmups) check(lastGraph, lastCover, Main.untraced)
      val t0 = System.nanoTime()
      var n = 0
      while (n < minChecks ||
          (System.nanoTime() - t0) / 1e9 < forS && checkTimes.length < Main.MaxChecks) {
        val t = System.nanoTime()
        check(lastGraph, lastCover, Main.untraced)
        checkTimes += (System.nanoTime() - t) / 1e9
        n += 1
      }
    } catch {
      case e: CheckFailed => checkFailure = Some(e.getMessage)
    }

  /** The check event; a traced run adds one traced check for the check spans. */
  private def emitCheck(): Unit = if (lastCover != null) checkFailure match {
    case Some(why) =>
      emit("event" -> "check", "ok" -> false, "digest" -> CoverDigest(lastCover), "reason" -> why)
    case None =>
      val layers = if (!a.trace) Map.empty[String, Double] else {
        tracer.startOp(-1)
        check(lastGraph, lastCover, tracer)
        val sp = tracer.ofOp(-1)
        Map("check.valid_s" -> sp("check.valid").seconds,
          "check.minimal_s" -> sp("check.minimal").seconds,
          "check.alloc_mb" -> sp("check").allocMb)
      }
      emit("event" -> "check", "ok" -> true, "digest" -> CoverDigest(lastCover),
        "check_s" -> checkTimes, "layers" -> layers)
  }

  /** The cover must be valid and minimal on `g` (fast checker). */
  private def check(g: DirectedGraph, cover: Array[Long], span: Tracer): Unit = span.span("check") {
    if (!span.span("check.valid")(CoverValidator.isValid(g, k, MinLen, cover, fast = true)))
      throw new CheckFailed("check_invalid: a constrained cycle survives the cover")
    if (!span.span("check.minimal")(CoverValidator.isMinimal(g, k, MinLen, cover, fast = true)))
      throw new CheckFailed("check_not_minimal: a cover vertex has no private cycle")
  }

  private def fail(i: Int, phase: String, why: String): Unit =
    emit("event" -> "op", "op" -> i, "phase" -> phase, "ok" -> false, "reason" -> why)

  /** Per-layer numbers of one traced cover: span times and allocation,
    * the program's own counters, and (distributed path) the Spark listener's
    * counters plus separately traced calls of the filter stages.
    */
  private def layerMetrics(i: Int, res: CoverResult, g: DirectedGraph,
                           dist: Option[DistributedTDB.DistCover], peakHeapMb: Double,
                           gcCount: Long, gcS: Double): Map[String, Double] = {
    val out = Map.newBuilder[String, Double]
    out += "jvm.peak_heap_mb" -> peakHeapMb
    out += "jvm.gc_count" -> gcCount.toDouble
    out += "jvm.gc_s" -> gcS
    val edges = pairs.length.toDouble
    dist match {
      case None =>
        out ++= ingestAndTopdown(i, pairs.length, g, res)
        out ++= distNotApplicable
      case Some(dc) =>
        counters.settle()
        out ++= counters.snapshot
        out += "dist.shuffle_mb_per_edge" -> counters.shuffleWriteBytes.get / (1024.0 * 1024.0) / edges
        out += "dist.core_vertices" -> dc.coreVertices.toDouble
        out += "dist.core_edges" -> dc.coreEdgeCount.toDouble
        out += "dist.core_edge_share" -> dc.coreEdgeCount / edges
        out += "dist.exact_validations" -> dc.result.stats("validations").toDouble
        out += "dist.exact_dfs_visits" -> dc.result.stats("dfsVisits").toDouble
        val trimOut = tracer.span("dist.trim")(ClosedWalkFilter.trim(edgeDf).count())
        val cand = tracer.span("dist.candidates") {
          ClosedWalkFilter.candidates(edgeDf, k).as[Long].collect()
        }
        java.util.Arrays.sort(cand)
        // Replay the exact pass on the core from outside: the induced
        // subgraph on the candidates, then the same two sequential calls.
        val core = pairs.filter { case (s, d) =>
          java.util.Arrays.binarySearch(cand, s) >= 0 && java.util.Arrays.binarySearch(cand, d) >= 0
        }
        val coreG = tracer.span("ingest.fromEdges")(DirectedGraph.fromEdges(core))
        val exact = tracer.span("topdown.cover")(TopDown.cover(coreG, k, MinLen, TopDown.TDBPlusPlus))
        if (core.length != dc.coreEdgeCount || CoverDigest(exact.cover) != CoverDigest(res.cover))
          throw new CheckFailed(s"replay_mismatch: core ${core.length} vs ${dc.coreEdgeCount} edges")
        val sp = tracer.ofOp(i)
        out += "dist.trim_s" -> sp("dist.trim").seconds
        out += "dist.trim_edges_out" -> trimOut.toDouble
        out += "dist.candidates_s" -> sp("dist.candidates").seconds
        out += "dist.candidates_self_s" -> (sp("dist.candidates").seconds - sp("dist.trim").seconds)
        out += "dist.candidates_out" -> cand.length.toDouble
        out ++= ingestAndTopdown(i, core.length, coreG, exact)
    }
    out.result()
  }

  private def ingestAndTopdown(i: Int, inputEdges: Int, g: DirectedGraph,
                               r: CoverResult): Seq[(String, Double)] = {
    val sp = tracer.ofOp(i)
    val calls = r.stats("bfsCalls").toDouble
    val validations = r.stats("validations").toDouble
    Seq(
      "ingest.fromEdges_s" -> sp("ingest.fromEdges").seconds,
      "ingest.alloc_mb" -> sp("ingest.fromEdges").allocMb,
      "ingest.n" -> g.n.toDouble,
      "ingest.m" -> g.m.toDouble,
      "ingest.edges_dropped" -> (inputEdges - g.m).toDouble,
      "topdown.cover_s" -> sp("topdown.cover").seconds,
      "topdown.alloc_mb" -> sp("topdown.cover").allocMb,
      "topdown.validations" -> validations,
      "topdown.dfs_visits" -> r.stats("dfsVisits").toDouble,
      "topdown.bfs_calls" -> calls,
      "topdown.bfs_pruned" -> r.stats("bfsPruned").toDouble,
      "topdown.bfs_prune_ratio" -> r.stats("bfsPruned") / calls,
      "topdown.keep_ratio" -> r.size / validations,
      "topdown.visits_per_validation" -> r.stats("dfsVisits") / validations,
    )
  }

  /** The sequential workloads run no Spark stage during the cover. */
  private val distNotApplicable: Seq[(String, Double)] = Seq(
    "dist.trim_s", "dist.trim_edges_out", "dist.candidates_s", "dist.candidates_self_s",
    "dist.candidates_out", "dist.core_vertices", "dist.core_edges", "dist.core_edge_share",
    "dist.spark_jobs", "dist.spark_stages", "dist.spark_tasks", "dist.spark_failed_tasks",
    "dist.executor_run_s", "dist.shuffle_write_mb", "dist.spill_disk_mb",
    "dist.shuffle_mb_per_edge", "dist.exact_validations", "dist.exact_dfs_visits",
  ).map(_ -> 0.0)
}
