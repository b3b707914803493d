package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** Reproduces Fig 14a (+ §5.2.2 prose): running time vs dataset size,
  * greedy vs exhaustive search, with extraction run both locally and
  * distributed on Spark.
  *
  * Usage: RuntimeVsSizeJob [maxMB]
  */
object RuntimeVsSizeJob {
  def main(args: Array[String]): Unit = {
    val maxMB = if (args.nonEmpty) args(0).toDouble else 16.0
    val spark = SparkSession.builder()
      .appName("datamaran-runtime")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .config("spark.ui.enabled", false)
      .getOrCreate()
    try println(Experiments.runtimeVsSize(maxMB, spark).text)
    finally spark.stop()
  }
}
