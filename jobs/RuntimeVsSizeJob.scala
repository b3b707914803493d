package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.{Experiments, Tables}

/** Reproduces Fig 14a (+ §5.2.2 prose): running time vs dataset size,
  * greedy vs exhaustive search, with extraction run both locally and
  * distributed on Spark.
  *
  * Usage: RuntimeVsSizeJob [maxMB]
  */
object RuntimeVsSizeJob {
  def main(args: Array[String]): Unit = {
    val maxMB = if (args.nonEmpty) args(0).toDouble else 16.0
    val sizes = Vector(1.0, 2.0, 4.0, 8.0, 16.0).filter(_ <= maxMB)
    val spark = SparkSession.builder()
      .appName("datamaran-runtime")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .config("spark.ui.enabled", false)
      .getOrCreate()
    try {
      val rows = Experiments.runtimeVsSize(sizes, spark)
      println(Tables.render("Fig 14a: running time vs dataset size",
        Vector("size(MB)", "greedy search", "exhaustive search", "local extract", "spark extract"),
        rows.map(r => Vector(f"${r.sizeMB}%.1f", Tables.ms(r.greedySearchMs),
          Tables.ms(r.exhaustiveSearchMs), Tables.ms(r.localExtractMs), Tables.ms(r.sparkExtractMs)))))
    } finally spark.stop()
  }
}
