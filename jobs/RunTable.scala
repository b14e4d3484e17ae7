package repro.jobs

import scala.collection.immutable.ListMap
import org.apache.spark.sql.SparkSession
import repro.bench.Tables

/** spark-submit entrypoint for the reproduced tables: runs one table of
  * [[repro.bench.Tables]], the same definition the bench suites call.
  *
  * {{{
  * spark-submit --class repro.jobs.RunTable repro.jar <table>
  *   table ∈ tableII|tableIII|tableIV|fig67|fig89|fig10|dist
  * }}}
  */
object RunTable {
  private val tables = ListMap[String, SparkSession => Seq[Seq[String]]](
    "tableII" -> Tables.tableII, "tableIII" -> Tables.tableIII, "tableIV" -> Tables.tableIV,
    "fig67" -> Tables.fig67, "fig89" -> Tables.fig89, "fig10" -> Tables.fig10,
    "dist" -> Tables.dist)

  def main(args: Array[String]): Unit = {
    require(args.length == 1 && tables.contains(args(0)),
      s"usage: RunTable <${tables.keys.mkString("|")}>")
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).appName(s"RunTable-${args(0)}").getOrCreate()
    try tables(args(0))(spark) finally spark.stop()
  }
}
