package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CoverValidator, DirectedGraph, TopDown}
import repro.dist.DistributedTDB
import repro.graphgen.{DatasetSpec, Datasets}

/** The reproduced paper tables, each defined once.
  *
  * Every table has a header, a row builder for one dataset (and one k, for
  * the sweeps) and a runner that applies the builder over the table's roster,
  * prints the rows tagged `[TABLE x]` / `[FIG x]` / `[DIST]` (the tags
  * EXPERIMENTS.md greps for) and returns them. The bench suites and the
  * `repro.jobs.RunTable` entrypoint only call the runners.
  *
  * Row builders also check the invariants of their table, so a fast but
  * wrong run cannot pass as a reproduction: a failed check throws.
  * Worst-case-exponential searches run through the budgeted
  * [[Harness.runAlgo]], so a blow-up prints "-" (the paper's dashes)
  * instead of hanging the run.
  */
object Tables {

  /** Hop bound of Tables III and IV and of the distributed table. */
  val K = 5

  private def emitted(tag: String, header: Seq[String], rows: Seq[Seq[String]]): Seq[Seq[String]] = {
    Harness.emit(tag, Harness.table(header, rows))
    rows
  }

  private def cells(outcomes: Harness.Outcome*): Seq[String] =
    outcomes.flatMap { o => val (s, t) = Harness.fmtCell(o); Seq(s, t) }

  private def secs(millis: Long): String = f"${millis / 1000.0}%.2f"

  /** One row per (dataset, k) over the Fig. 6–10 roster (WKV and WGO stand-ins). */
  private def sweep(spark: SparkSession, ks: Range)(
      row: (String, DirectedGraph, Int) => Seq[String]): Seq[Seq[String]] =
    for {
      spec <- Datasets.speedup
      g = Harness.loadGraph(spark, spec)
      k <- ks
    } yield row(spec.name, g, k)

  // ---------------------------------------------------------------------
  // Table II — dataset statistics (|V|, |E|, d_avg).
  //
  // The paper lists 16 SNAP/KONECT graphs up to Twitter (1.47B edges); the
  // offline substitute roster is 8 synthetic stand-ins at reduced scale
  // (DESIGN.md § dataset substitutions). The realised statistics after
  // self-loop/duplicate removal go next to the paper's Table II.

  val tableIIHeader: Seq[String] = Seq("Name", "Mimics", "Model", "|V|", "|E|", "d_avg")

  def tableIIRow(spec: DatasetSpec, g: DirectedGraph): Seq[String] = {
    val dAvg = if (g.n == 0) 0.0 else g.m.toDouble / g.n
    Seq(spec.name, spec.mimics, spec.model, g.n.toString, g.m.toString, f"$dAvg%.1f")
  }

  def tableII(spark: SparkSession): Seq[Seq[String]] =
    emitted("TABLE II", tableIIHeader,
      Datasets.all.map(spec => tableIIRow(spec, Harness.loadGraph(spark, spec))))

  // ---------------------------------------------------------------------
  // Table III — cover size and runtime of DARC-DV, BUR+ and TDB++ at k = 5
  // on every dataset.
  //
  // Expected shape (paper): TDB++ is 2–3 orders of magnitude faster than
  // both baselines with a cover within a few percent of BUR+'s (the
  // smallest); only TDB++ completes the heavy datasets (rows print "-",
  // like the paper's dashes, where a baseline is skipped or DNFs).

  val tableIIIHeader: Seq[String] = Seq("Name", "|V|", "|E|",
    "DARC-DV size", "DARC-DV s", "BUR+ size", "BUR+ s", "TDB++ size", "TDB++ s")

  /** The TDB++ cover is checked valid and minimal with the fast validator. */
  def tableIIIRow(spec: DatasetSpec, g: DirectedGraph, k: Int): Seq[String] = {
    val tdb = Harness.time(TopDown.cover(g, k))
    assert(CoverValidator.isValid(g, k, 3, tdb.value.cover, fast = true),
      s"${spec.name}: TDB++ cover invalid")
    assert(CoverValidator.isMinimal(g, k, 3, tdb.value.cover, fast = true),
      s"${spec.name}: TDB++ cover not minimal")
    def baseline(algo: String): Harness.Outcome =
      if (spec.heavyOnly) Harness.Dnf("heavy: TDB++-only") else Harness.runAlgo(g, algo, k)
    Seq(spec.name, g.n.toString, g.m.toString) ++
      cells(baseline("DARC-DV"), baseline("BUR+")) ++
      Seq(tdb.value.size.toString, secs(tdb.millis))
  }

  def tableIII(spark: SparkSession): Seq[Seq[String]] =
    emitted("TABLE III", tableIIIHeader,
      Datasets.all.map(spec => tableIIIRow(spec, Harness.loadGraph(spark, spec), K)))

  // ---------------------------------------------------------------------
  // Table IV — TDB++ cover size at k = 5 with and without 2-cycles, and
  // their ratio.
  //
  // Expected shape (paper): including 2-cycles inflates the cover by ~1.1×
  // to ~8.6× (average ≈ 3×), with the inflation largest on graphs rich in
  // reciprocated edges.

  val tableIVHeader: Seq[String] = Seq("Name", "No 2-cycle", "With 2-cycle", "Ratio")

  /** The with-2-cycle cover is checked valid, and never smaller than the other. */
  def tableIVRow(name: String, g: DirectedGraph, k: Int): Seq[String] = {
    val no2 = TopDown.cover(g, k, minLen = 3).size
    val with2 = TopDown.cover(g, k, minLen = 2)
    assert(CoverValidator.isValid(g, k, 2, with2.cover, fast = true),
      s"$name: with-2-cycle cover invalid")
    assert(with2.size >= no2, s"$name: with-2-cycle cover smaller than without")
    Seq(name, no2.toString, with2.size.toString,
      if (no2 == 0) "-" else f"${with2.size.toDouble / no2}%.2f")
  }

  def tableIV(spark: SparkSession): Seq[Seq[String]] =
    emitted("TABLE IV", tableIVHeader,
      Datasets.all.filterNot(_.heavyOnly).map(spec =>
        tableIVRow(spec.name, Harness.loadGraph(spark, spec), K)))

  // ---------------------------------------------------------------------
  // Figs. 6/7 — runtime and cover size while k varies 3..7.
  //
  // Expected shape (paper): TDB++ fastest at every k, DARC-DV next, BUR+
  // slowest; BUR+ smallest cover, TDB++ within a few percent, DARC-DV
  // largest.

  val fig67Header: Seq[String] = Seq("Name", "k",
    "DARC-DV size", "DARC-DV s", "BUR+ size", "BUR+ s", "TDB++ size", "TDB++ s")

  def fig67Row(name: String, g: DirectedGraph, k: Int): Seq[String] =
    Seq(name, k.toString) ++ cells(Seq("DARC-DV", "BUR+", "TDB++").map(Harness.runAlgo(g, _, k)): _*)

  def fig67(spark: SparkSession): Seq[Seq[String]] =
    emitted("FIG 6/7", fig67Header, sweep(spark, 3 to 7)(fig67Row))

  // ---------------------------------------------------------------------
  // Figs. 8/9 — BUR vs BUR+ pruning effect while k varies 3..6.
  //
  // Expected shape (paper): BUR and BUR+ run alike but BUR+ covers are
  // smaller.

  val fig89Header: Seq[String] = Seq("Name", "k", "BUR size", "BUR s", "BUR+ size", "BUR+ s")

  /** BUR+ only removes vertices from BUR's cover, so it is never larger. */
  def fig89Row(name: String, g: DirectedGraph, k: Int): Seq[String] = {
    val bur = Harness.runAlgo(g, "BUR", k)
    val burPlus = Harness.runAlgo(g, "BUR+", k)
    (bur, burPlus) match {
      case (Harness.Done(s1, _, _), Harness.Done(s2, _, _)) =>
        assert(s2 <= s1, s"$name k=$k: BUR+ cover larger than BUR's")
      case _ => () // a budget DNF prints "-": nothing to compare
    }
    Seq(name, k.toString) ++ cells(bur, burPlus)
  }

  def fig89(spark: SparkSession): Seq[Seq[String]] =
    emitted("FIG 8/9", fig89Header, sweep(spark, 3 to 6)(fig89Row))

  // ---------------------------------------------------------------------
  // Fig. 10 — Top-Down technique speed-ups: runtime of TDB, TDB+ and TDB++
  // while k varies 3..7.
  //
  // Expected shape (paper): all variants produce identical covers; TDB+
  // beats TDB via the block technique; TDB++ adds the BFS-filter, whose
  // advantage grows with k. Plain TDB may exhaust the search budget at
  // large k (printed "-"), which is itself the paper's point.

  val fig10Header: Seq[String] = Seq("Name", "k", "size", "TDB s", "TDB+ s", "TDB++ s", "bfs-pruned")

  /** TDB+ and TDB++ covers must be identical, and TDB's of the same size. */
  def fig10Row(name: String, g: DirectedGraph, k: Int): Seq[String] = {
    val tdb = Harness.runAlgo(g, "TDB", k)
    val plus = Harness.time(TopDown.cover(g, k, 3, TopDown.TDBPlus))
    val plusPlus = Harness.time(TopDown.cover(g, k, 3, TopDown.TDBPlusPlus))
    assert(plus.value.cover.sameElements(plusPlus.value.cover), s"$name k=$k: TDB+ vs TDB++ cover")
    tdb match {
      case Harness.Done(size, _, _) =>
        assert(size == plus.value.size, s"$name k=$k: TDB vs TDB+ size")
      case _ => () // budget DNF: nothing to compare
    }
    Seq(name, k.toString, plus.value.size.toString, Harness.fmtCell(tdb)._2,
      secs(plus.millis), secs(plusPlus.millis), plusPlus.value.stats("bfsPruned").toString)
  }

  def fig10(spark: SparkSession): Seq[Seq[String]] =
    emitted("FIG 10", fig10Header, sweep(spark, 3 to 7)(fig10Row))

  // ---------------------------------------------------------------------
  // DIST — the distributed TDB++ pipeline on the heavy datasets at k = 5,
  // the dataflow counterpart of the paper's billion-scale claim (Table
  // III's FLK/LJ/WKP/TW rows, which only TDB++ completes).
  //
  // The shape to reproduce: the bulk filter shrinks the graph by a large
  // factor before the exact top-down pass, which is what makes the heavy
  // rows feasible at all.

  val distHeader: Seq[String] = Seq("Name", "|E|", "core |E|", "core %", "cover", "total s")

  def distRow(spark: SparkSession, name: String, edges: DataFrame, k: Int): Seq[String] = {
    val cached = edges.cache()
    val m = cached.count()
    val t = Harness.time(DistributedTDB.cover(spark, cached, k))
    val core = t.value.coreEdgeCount
    Seq(name, m.toString, core.toString, f"${100.0 * core / math.max(1, m)}%.1f%%",
      t.value.result.size.toString, secs(t.millis))
  }

  def dist(spark: SparkSession): Seq[Seq[String]] =
    emitted("DIST", distHeader,
      Datasets.all.filter(_.heavyOnly).map(spec => distRow(spark, spec.name, spec.edges(spark), K)))
}
