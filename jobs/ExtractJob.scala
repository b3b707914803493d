package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core._

/** spark-submit entrypoint: extract structure from a log file.
  *
  * Usage: ExtractJob <input.log> <outputDir> [greedy|exhaustive]
  *
  * Infers the structure on the file's first 20,000 lines (not yet the
  * paper's whole-file sampling, §9.1: search samples chunks only inside
  * that head, so a format that first appears later is extracted as noise;
  * ROADMAP item 6), then runs the distributed extraction (each partition
  * runs the greedy cover from a stitched entry line) and writes one CSV
  * directory per relational table plus a `records` table of boundaries.
  * A file of fewer than 20,000 lines is already whole in that sample: one
  * task covers it, and each table is one partition, written as one CSV
  * file.
  */
object ExtractJob {
  private val Usage = "usage: ExtractJob <input.log> <outputDir> [greedy|exhaustive]"

  /** The input file, the output directory and whether search is exhaustive
    * (the default); any other mode or argument count fails with the usage
    * message.
    */
  def arguments(args: Array[String]): (String, String, Boolean) = args match {
    case Array(input, outDir) => (input, outDir, true)
    case Array(input, outDir, "exhaustive") => (input, outDir, true)
    case Array(input, outDir, "greedy") => (input, outDir, false)
    case _ => throw new IllegalArgumentException(Usage)
  }

  def main(args: Array[String]): Unit = {
    val (input, outDir, exhaustive) = arguments(args)
    val spark = SparkSession.builder()
      .appName("datamaran-extract")
      .config("spark.sql.shuffle.partitions", 64)
      .getOrCreate()
    try {
      val lines = spark.sparkContext.textFile(input)
      val (inf, ex) = SparkExtract.inferAndExtract(
        spark, lines, DmParams(exhaustive = exhaustive))
      println(s"[ExtractJob] inferred ${inf.types.length} record type(s):")
      inf.types.zipWithIndex.foreach { case (t, i) =>
        println(f"  type $i: score=${t.mdlScore}%.0f cov=${t.sampleCoverage}%.2f  ${t.template.pretty}")
      }
      ex.records.write.mode("overwrite").option("header", true).csv(s"$outDir/records")
      ex.tables.foreach { t =>
        val name = if (t.path.isEmpty) "root" else t.path.replace('.', '_')
        t.df.write.mode("overwrite").option("header", true)
          .csv(s"$outDir/type${t.typeIdx}_$name")
      }
      ex.release()
      println(s"[ExtractJob] wrote ${ex.tables.length} tables to $outDir")
    } finally spark.stop()
  }
}
