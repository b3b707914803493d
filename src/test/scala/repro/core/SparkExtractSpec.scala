package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}
import repro.loggen._

/** Distributed extraction: equality with the sequential extractor on every
  * partitioning, relational output correctness, release of cached data, and
  * a DuckDB oracle round-trip.
  */
class SparkExtractSpec extends SparkSpec {

  private val F = TField
  private def c(ch: Char) = TChar(ch)

  private def crashGt(n: Int, noise: Double, seed: Long): GtDataset =
    LogSynth.generate(DatasetSpec("sx", Label.MNI,
      Vector(Corpus.crashType(new scala.util.Random(seed)) -> 1.0), n, NoiseSpec.some(noise), seed))

  private def templatesFor(gt: GtDataset): Vector[Template] =
    Datamaran.infer(gt.lines, DmParams()).types.map(_.template)

  test("spark extraction equals local extraction (multi-line, noise, 7 partitions)") {
    val gt = crashGt(200, 0.08, 21)
    val ts = templatesFor(gt)
    assert(ts.nonEmpty)
    val local = Datamaran.extract(gt.lines, ts, 10)
    val rdd = spark.sparkContext.parallelize(gt.lines, 7)
    val ex = SparkExtract.extract(spark, rdd, ts, 10)
    val got = ex.records.collect().map(r => (r.getInt(0), r.getLong(1), r.getInt(2))).sortBy(_._2)
    val want = local.map(r => (r.typeIdx, r.start.toLong, r.span)).sortBy(_._2)
    assert(got.toVector == want)
  }

  test("records straddling partition boundaries are found") {
    // 3-line records, one partition per ~2 lines: every record straddles
    val gt = crashGt(40, 0.0, 22)
    val ts = templatesFor(gt)
    val local = Datamaran.extract(gt.lines, ts, 10)
    val rdd = spark.sparkContext.parallelize(gt.lines, math.max(2, gt.lines.length / 2))
    val ex = SparkExtract.extract(spark, rdd, ts, 10)
    assert(ex.records.count() == local.length.toLong)
    ex.release()
  }

  test("more partitions than lines is handled") {
    val gt = crashGt(5, 0.0, 23)
    val ts = templatesFor(gt)
    val rdd = spark.sparkContext.parallelize(gt.lines, 64)
    val ex = SparkExtract.extract(spark, rdd, ts, 10)
    assert(ex.records.count() == gt.records.length.toLong)
    ex.release()
  }

  test("property: spark equals local on every partitioning, row for row") {
    def twoTypes(seed: Long): GtDataset = {
      val r = new scala.util.Random(seed)
      LogSynth.generate(DatasetSpec(s"two$seed", Label.MI,
        Vector(Corpus.crashType(r) -> 1.0, Corpus.kvType(r) -> 1.0), 40, NoiseSpec.some(0.1), seed))
    }
    val pair = Template(Vector(F, c(','), F, c('\n')))
    // every pair line can start a 3-pair record, so a wrong entry offset
    // shifts the records' phase
    val pairs3 = Template(Vector(F, c(','), F, c('\n'), F, c(','), F, c('\n'), F, c(','), F, c('\n')))
    val rnd = new scala.util.Random(44)
    val phased = Vector.fill(60)(if (rnd.nextInt(5) == 0) "x" else s"${rnd.nextInt(9)},${rnd.nextInt(9)}")
    // (name, lines, templates, record count the input must give)
    val inputs: Vector[(String, Vector[String], Vector[Template], Option[Int])] =
      Vector(41L, 42L, 43L).map { seed =>
        val gt = twoTypes(seed)
        (s"two-type seed $seed", gt.lines, templatesFor(gt), None)
      } ++ Vector(
        // 3-line records only: with n/2 partitions every record straddles
        { val gt = crashGt(40, 0.0, 22); ("crash 40", gt.lines, templatesFor(gt), None) },
        // few lines: most partition counts exceed the line count
        { val gt = crashGt(5, 0.0, 23); ("crash 5", gt.lines, templatesFor(gt), Some(gt.records.length)) },
        ("pairs", phased, Vector(pairs3, pair), None),
        ("empty", Vector.empty[String], Vector(pair), Some(0)),
        ("one line", Vector("a,b"), Vector(pair), Some(1))
      )
    for ((name, lines, ts, expected) <- inputs) {
      assert(ts.nonEmpty, name)
      val local = Datamaran.extract(lines, ts, 10)
      expected.foreach(k => assert(local.length == k, name))
      if (name.startsWith("two-type")) {
        assert(ts.length == 2, s"$name: ${ts.map(_.pretty)}")
        assert(local.exists(_.span == 3), s"$name has no 3-line record")
      }
      val n = lines.length
      val partitionCounts = Vector(1, 2, 3, 7, n / 3, n / 2, n, n + 5).map(math.max(1, _)).distinct
      for (k <- partitionCounts) {
        val ex = SparkExtract.extract(spark, spark.sparkContext.parallelize(lines, k), ts, 10)
        SparkEquality.mismatch(ex, local).foreach(m => fail(s"$name, $k partitions: $m"))
        ex.release()
      }
    }
  }

  test("release unpersists the cached rows") {
    val sc = spark.sparkContext
    val gt = crashGt(30, 0.05, 27)
    val ts = templatesFor(gt)
    // ids, not sizes: the context cleaner may free an earlier test's RDD meanwhile
    val before = sc.getPersistentRDDs.keySet
    val ex = SparkExtract.extract(spark, sc.parallelize(gt.lines, 4), ts, 10)
    assert(ex.records.count() > 0)
    ex.tables.foreach(_.df.count())
    assert(sc.getPersistentRDDs.keySet.diff(before).size == 1)
    ex.release()
    assert(sc.getPersistentRDDs.keySet.diff(before).isEmpty)
  }

  test("root table rows equal the local relational conversion") {
    val gt = crashGt(120, 0.05, 24)
    val ts = templatesFor(gt)
    val local = Datamaran.extract(gt.lines, ts, 10)
    val rdd = spark.sparkContext.parallelize(gt.lines, 5)
    val ex = SparkExtract.extract(spark, rdd, ts, 10)
    val root = ex.tables.find(t => t.typeIdx == 0 && t.path == "").get.df
    val got = root.collect().map(r => (r.getLong(0), r.toSeq.drop(2).map(_.toString).toVector))
      .sortBy(_._1).toVector
    val want = local.filter(_.typeIdx == 0).map { ri =>
      val rootRow = Relational.toRows(ri.parsed).find(_.path == "").get
      (ri.start.toLong, rootRow.values)
    }.sortBy(_._1)
    assert(got == want)
  }

  test("array child tables carry (record_id, ord) keys") {
    val t = Template(Vector(F, c(' '), TArray(Vector(F), ',', '\n')))
    val lines = Vector("h a,b,c", "h x,y", "junk junk junk?")
    val rdd = spark.sparkContext.parallelize(lines, 2)
    val ex = SparkExtract.extract(spark, rdd, Vector(t), 10)
    val child = ex.tables.find(_.path == "a0").get.df
    val rows = child.collect().map(r => (r.getLong(0), r.getString(1), r.getString(2))).sortBy(x => (x._1, x._2))
    assert(rows.toVector == Vector((0L, "0", "a"), (0L, "1", "b"), (0L, "2", "c"), (1L, "0", "x"), (1L, "1", "y")))
  }

  test("template priority is respected distributed") {
    val t1 = Template(Vector(F, c(','), F, c('\n')))
    val t2 = Template(Vector(TArray(Vector(F), ',', '\n')))
    val lines = Vector("a,b", "a,b,c", "z,w")
    val rdd = spark.sparkContext.parallelize(lines, 2)
    val ex = SparkExtract.extract(spark, rdd, Vector(t1, t2), 10)
    val got = ex.records.collect().map(r => (r.getLong(1), r.getInt(0))).sortBy(_._1).toVector
    assert(got == Vector((0L, 0), (1L, 1), (2L, 0)))
  }

  test("oracle round-trip: extracted lineitem log aggregates match DuckDB") {
    val li = SynthData.lineitem(spark, sf = 0.002).limit(4000).cache()
    val cols = li.columns
    val logDf = li.select(concat_ws("|", cols.toIndexedSeq.map(col): _*) as "line")
    val lines = logDf.collect().map(_.getString(0)).toVector
    // known template: 10 pipe-separated fields per line
    val items = Vector.tabulate(cols.length)(i =>
      if (i == cols.length - 1) Vector(F, c('\n')) else Vector(F, c('|'))).flatten
    val t = Template(items)
    val rdd = spark.sparkContext.parallelize(lines, 8)
    val ex = SparkExtract.extract(spark, rdd, Vector(t), 10)
    assert(ex.records.count() == lines.length.toLong)
    val root = ex.tables.find(_.path == "").get.df
    val extracted = root.select(
      col("f7") as "l_returnflag",
      col("f3").cast("double") as "qty"
    ).groupBy("l_returnflag").agg(
      count(lit(1)) as "cnt",
      round(sum(col("qty")), 4) as "total_qty"
    )
    Oracle.assertEquivalent(
      extracted,
      """SELECT l_returnflag,
        |       count(*) AS cnt,
        |       round(sum(CAST(l_quantity AS DOUBLE)), 4) AS total_qty
        |FROM lineitem GROUP BY l_returnflag""".stripMargin,
      "lineitem" -> li
    )
  }

  test("inferAndExtract finds the single type of an apache log end-to-end") {
    val gt = LogSynth.generate(DatasetSpec("ae", Label.SNI,
      Vector(Corpus.apacheType(new scala.util.Random(31)) -> 1.0), 500, NoiseSpec.some(0.05), 31))
    val rdd = spark.sparkContext.parallelize(gt.lines, 4)
    val (inf, ex) = SparkExtract.inferAndExtract(spark, rdd, DmParams())
    assert(inf.types.length == 1)
    assert(ex.records.count() == gt.records.length.toLong)
  }

  test("records dataframe schema is (type_idx, start_line, span)") {
    val gt = crashGt(20, 0.0, 26)
    val ts = templatesFor(gt)
    val ex = SparkExtract.extract(spark, spark.sparkContext.parallelize(gt.lines, 2), ts, 10)
    assert(ex.records.columns.toVector == Vector("type_idx", "start_line", "span"))
  }
}
