package repro.core

import org.apache.spark.SparkTestAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions._
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}
import repro.{Oracle, SparkSpec, SynthData}
import repro.loggen._

/** Distributed extraction: equality with the sequential extractor on every
  * partitioning and through both branches of `inferAndExtract`, the jobs of
  * one-partition extractions, relational output correctness, release of
  * cached data, and a DuckDB oracle round-trip.
  */
class SparkExtractSpec extends SparkSpec {

  private val F = TField
  private def c(ch: Char) = TChar(ch)

  private def crashGt(n: Int, noise: Double, seed: Long): GtDataset =
    LogSynth.generate(DatasetSpec("sx", Label.MNI,
      Vector(Corpus.crashType(new scala.util.Random(seed)) -> 1.0), n, NoiseSpec.some(noise), seed))

  private def templatesFor(gt: GtDataset): Vector[Template] =
    Datamaran.infer(gt.lines, DmParams()).types.map(_.template)

  /** The jobs `f` starts, counted by a listener on the driver. */
  private def jobsOf[A](f: => A): (A, Int) = {
    val sc = spark.sparkContext
    val started = new java.util.concurrent.atomic.AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = started.incrementAndGet()
    }
    SparkTestAccess.drainListeners(sc)
    sc.addSparkListener(listener)
    try {
      val a = f
      SparkTestAccess.drainListeners(sc)
      (a, started.get)
    } finally sc.removeSparkListener(listener)
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
    // two types with the same table paths (a0, a0.a0, a0.a1, a1) and shapes, so a
    // row put in the other type's table of that path is well-formed but wrong
    def nestedType(eq: Char, colon: Char, dot: Char, semi: Char, pct: Char, comma: Char, space: Char, bar: Char) =
      Template(Vector(F, c(eq),
        TArray(Vector(F, c(colon), TArray(Vector(F), dot, semi), TArray(Vector(F), dot, pct)), comma, space),
        TArray(Vector(F), bar, '\n')))
    val nestedA = nestedType('=', ':', '.', ';', '%', ',', ' ', '|')
    val nestedB = nestedType('#', '@', '-', '/', '&', '+', '!', '~')
    val nrnd = new scala.util.Random(45)
    def elems(n: Int, sep: String, f: Int => String) = Vector.tabulate(1 + nrnd.nextInt(n))(f).mkString(sep)
    def word(i: Int) = s"${"kvxyz".charAt(nrnd.nextInt(5))}$i"
    val nested = Vector.fill(50) {
      nrnd.nextInt(4) match {
        case 0 => s"${word(0)}=${elems(3, ",", i => s"${word(i)}:${elems(3, ".", word)};${elems(3, ".", word)}%")} ${elems(3, "|", word)}"
        case 1 => s"${word(0)}#${elems(3, "+", i => s"${word(i)}@${elems(3, "-", word)}/${elems(3, "-", word)}&")}!${elems(3, "~", word)}"
        case 2 => "junk line"
        case _ => s"${word(0)}=${word(1)}:${word(2)};"
      }
    } ++ Vector(
      // '\r' before the line end, non-ASCII and NUL inside fields and noise
      "k=x:1.2;3%,y:3;4.5% p|q\r",
      "k#x@1/2&!p~q\r",
      "k=\u00e4\u00f6:\u4e2d\u6587;\u0000% \u0000|\u00fc",
      "\u0000\r",
      "\u00e9t\u00e9 noise\r",
      // one 100,000-char field
      "k#x@1-2/3&!" + "w" * 100000,
      "k=x:1;2% p|q"
    )
    // (name, lines, templates, record count the input must give)
    val inputs: Vector[(String, Vector[String], Vector[Template], Option[Int])] =
      Vector(41L, 42L, 43L).map { seed =>
        val gt = twoTypes(seed)
        (s"two-type seed $seed", gt.lines, templatesFor(gt), None)
      } ++ Vector(
        // multi-line records among noise lines
        { val gt = crashGt(200, 0.08, 21); ("crash 200", gt.lines, templatesFor(gt), None) },
        { val gt = crashGt(120, 0.05, 24); ("crash 120", gt.lines, templatesFor(gt), None) },
        // 3-line records only: with n/2 partitions every record straddles
        { val gt = crashGt(40, 0.0, 22); ("crash 40", gt.lines, templatesFor(gt), None) },
        // few lines: most partition counts exceed the line count
        { val gt = crashGt(5, 0.0, 23); ("crash 5", gt.lines, templatesFor(gt), Some(gt.records.length)) },
        ("nested", nested, Vector(nestedA, nestedB), None),
        ("pairs", phased, Vector(pairs3, pair), None),
        ("empty", Vector.empty[String], Vector(pair), Some(0)),
        ("one line", Vector("a,b"), Vector(pair), Some(1))
      )
    val p = DmParams()
    for ((name, lines, ts, expected) <- inputs) {
      assert(ts.nonEmpty, name)
      val local = Datamaran.extract(lines, ts, 10)
      expected.foreach(k => assert(local.length == k, name))
      if (name.startsWith("two-type")) {
        assert(ts.length == 2, s"$name: ${ts.map(_.pretty)}")
        assert(local.exists(_.span == 3), s"$name has no 3-line record")
      }
      if (name == "nested") {
        val tables = SparkEquality.localRows(local).keySet
        for (tid <- 0 to 1; path <- Vector("", "a0", "a0.a0", "a0.a1", "a1"))
          assert(tables.contains((tid, path)), s"$name: no rows in table $tid '$path'")
        // the hand-written record lines after the 50 drawn ones
        assert(Vector(50, 51, 52, 55, 56).forall(i => local.exists(_.start == i)), name)
      }
      val n = lines.length
      val partitionCounts = Vector(1, 2, 3, 5, 7, 64, n / 3, n / 2, n, n + 5).map(math.max(1, _)).distinct
      for (k <- partitionCounts) {
        val ex = SparkExtract.extract(spark, spark.sparkContext.parallelize(lines, k), ts, 10)
        SparkEquality.mismatch(ex, local).foreach(m => fail(s"$name, $k partitions: $m"))
        ex.release()
      }
      // through the entry point, on both branches: a sample longer than the file
      // holds it whole (one partition); one of n or n/2 lines leaves the partitions
      for ((sampleLines, parts) <- Vector(n + 1 -> 1, n -> 3, n / 2 -> 3) if sampleLines >= 1) {
        val (inf, ex) = SparkExtract.inferAndExtract(spark, spark.sparkContext.parallelize(lines, 3), p, sampleLines)
        assert(ex.records.rdd.getNumPartitions == parts, s"$name, sample $sampleLines")
        SparkEquality.mismatch(ex, Datamaran.extract(lines, inf.types.map(_.template), p.maxSpan))
          .foreach(m => fail(s"$name, sample $sampleLines: $m"))
        ex.release()
      }
    }
  }

  test("a file the sample holds runs no job after its take until a table is evaluated, and one per count") {
    val rdd = spark.sparkContext.parallelize(crashGt(60, 0.05, 28).lines, 3)
    val (_, takeJobs) = jobsOf(rdd.take(20000))
    val ((inf, ex), callJobs) = jobsOf(SparkExtract.inferAndExtract(spark, rdd))
    assert(inf.types.nonEmpty && ex.tables.nonEmpty)
    assert(callJobs == takeJobs)
    for (df <- ex.records +: ex.tables.map(_.df))
      assert(jobsOf(df.count())._2 == 1, df.schema.simpleString)
    ex.release()
    // the partition path, for contrast: a heads job and an exit-table job after the take
    val n = rdd.count().toInt
    val (_, partTakeJobs) = jobsOf(rdd.take(n))
    val ((_, part), partJobs) = jobsOf(SparkExtract.inferAndExtract(spark, rdd, DmParams(), n))
    assert(partJobs == partTakeJobs + 2)
    part.release()
  }

  test("release unpersists a whole-file extraction's block and destroys its sample broadcast") {
    val sc = spark.sparkContext
    val lines = crashGt(30, 0.05, 29).lines
    def holdsSample = SparkTestAccess.driverBroadcasts(sc).count {
      case a: Array[String] => a.sameElements(lines)
      case _ => false
    }
    val before = sc.getPersistentRDDs.keySet
    val (_, ex) = SparkExtract.inferAndExtract(spark, sc.parallelize(lines, 2))
    assert(ex.records.count() > 0)
    ex.tables.foreach(_.df.count())
    assert(sc.getPersistentRDDs.keySet.diff(before).size == 1)
    assert(holdsSample == 1)
    ex.release()
    assert(sc.getPersistentRDDs.keySet.diff(before).isEmpty)
    // destroy() removes the broadcast's blocks asynchronously
    eventually(timeout(Span(30, Seconds)))(assert(holdsSample == 0))
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
    // a second release is a no-op: destroying the heads broadcast again would throw
    ex.release()
    assert(sc.getPersistentRDDs.keySet.diff(before).isEmpty)
  }

  test("extract over one partition gives one-partition tables, each counted in one job with no exchange") {
    val gt = crashGt(30, 0.05, 30)
    val ts = templatesFor(gt)
    def frames(ex: SparkExtract.SparkExtraction) = ex.records +: ex.tables.map(_.df)
    val one = SparkExtract.extract(spark, spark.sparkContext.parallelize(gt.lines, 1), ts, 10)
    assert(one.tables.nonEmpty)
    for (df <- frames(one)) {
      assert(df.rdd.getNumPartitions == 1, df.schema.simpleString)
      assert(!df.groupBy().count().queryExecution.executedPlan.treeString.contains("Exchange"), df.schema.simpleString)
      assert(jobsOf(df.count())._2 == 1, df.schema.simpleString)
    }
    one.release()
    val three = SparkExtract.extract(spark, spark.sparkContext.parallelize(gt.lines, 3), ts, 10)
    for (df <- frames(three)) assert(df.rdd.getNumPartitions == 3, df.schema.simpleString)
    three.release()
  }

  test("a deserialized template compiles its own parse program and parses") {
    // the extraction closures capture the templates, and every task
    // deserializes its copies
    val t = Template(Vector(F, c(','), TArray(Vector(F), ';', '\n')))
    val lines = Vector("a,b;c", "x")
    assert(t.program.parse(lines, 0, 1, new ParseBuffer) == 1)
    val out = new java.io.ByteArrayOutputStream
    new java.io.ObjectOutputStream(out).writeObject(t)
    val copy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(out.toByteArray))
      .readObject().asInstanceOf[Template]
    assert(copy == t && (copy.program ne t.program))
    assert(Datamaran.extract(lines, Vector(copy), 10) == Datamaran.extract(lines, Vector(t), 10))
    assert(Datamaran.extract(lines, Vector(copy), 10).map(_.start) == Vector(0))
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
