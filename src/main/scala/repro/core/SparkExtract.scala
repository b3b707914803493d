package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.expressions.GenericRow
import org.apache.spark.sql.types._
import scala.collection.immutable.ArraySeq

/** Distributed extraction (the O(T_data) step the paper calls "eminently
  * parallelizable", §5.2.2). The greedy cover of a stretch of lines depends
  * only on the line where it is entered, and a partition's last record
  * spills at most L-1 lines into the next partition. So each partition runs
  * [[Datamaran.Cover]], the local cover, over its lines plus the next L-1,
  * from an entry offset below L (the enumerate-all-start-states technique of
  * data-parallel FSMs, Mytkowicz et al., ASPLOS 2014):
  *
  *  1. one job returns each partition's line count and first L-1 lines;
  *  2. one job returns each partition's exit table: for each entry offset
  *     e < L, where the cover entered at e leaves the partition;
  *  3. the driver stitches the entries left to right through the tables,
  *     and the cached rows stage replays each partition's cover from its
  *     entry, emitting the relational rows (§3.3/Fig 7) of every record.
  *     A partition's rows are cached as one block: an `Array[Row]` per
  *     output table and one for the records table, and each table's
  *     DataFrame reads its own array. One object per partition, not one
  *     per row, because Spark sizes a deserialized cache by walking its
  *     elements' object graphs as it grows, while it only samples the
  *     elements of a large array.
  *
  * A file that [[inferAndExtract]]'s sample already holds whole skips steps
  * 1-3: one task covers the sample from line 0 into one cached block, and
  * each table is a one-partition DataFrame over it. Both cases build the
  * block with one cover-to-rows loop and the tables with one set of schemas.
  */
object SparkExtract {

  /** One output table: `typeIdx` identifies the record type, `path` the
    * Array node ("" = root record table).
    */
  final case class ExtractedTable(typeIdx: Int, path: String, df: DataFrame)

  final case class SparkExtraction(
      /** (type_idx, start_line, span) per extracted record. */
      records: DataFrame,
      tables: Vector[ExtractedTable]
  ) {
    private[SparkExtract] var onRelease: () => Unit = () => ()

    /** Unpersist the cached rows and destroy the broadcast of the call
      * that made this extraction. Call it once its tables are written: the
      * DataFrames cannot be evaluated afterwards.
      */
    def release(): Unit = {
      onRelease()
      onRelease = () => ()
    }
  }

  /** One partition's output rows: `tables(k)` holds output table k's rows
    * (the tables numbered over templates × [[Relational.schemas]]), and
    * `records` the (type_idx, start_line, span) row of each record.
    */
  private final case class Block(tables: Array[Array[Row]], records: Array[Row])

  /** Distribute `lines` and extract with `templates` (priority order). */
  def extract(
      spark: SparkSession,
      lines: RDD[String],
      templates: Vector[Template],
      maxSpan: Int
  ): SparkExtraction = {
    require(maxSpan >= 1, s"maxSpan must be positive: $maxSpan")
    val sc = spark.sparkContext

    val heads: Array[(Int, Array[String])] = lines.mapPartitions { it =>
      val head = Array.newBuilder[String]
      var n = 0
      it.foreach { l => if (n < maxSpan - 1) head += l; n += 1 }
      Iterator.single((n, head.result()))
    }.collect()
    val counts = heads.map(_._1)
    val offsets = counts.scanLeft(0L)(_ + _)
    val bcHeads = sc.broadcast(heads.map(_._2))

    // the closures capture `templates`: each task deserializes its own
    // copies, which compile their parse programs once per task
    val exits: Array[Array[Int]] = lines.mapPartitionsWithIndex { (pid, it) =>
      // partition 0 is entered at 0 only
      val entered = if (pid == 0) 1 else maxSpan
      Iterator.single(exitTable(window(it, pid, bcHeads.value, maxSpan), counts(pid), templates, maxSpan, entered))
    }.collect()

    val entries = new Array[Int](exits.length)
    for (pid <- 1 until exits.length)
      entries(pid) = exits(pid - 1)(entries(pid - 1)) - counts(pid - 1)

    frames(spark, templates, onePartition = false, () => bcHeads.destroy()) { firstSlot =>
      lines.mapPartitionsWithIndex { (pid, it) =>
        val cover = new Datamaran.Cover(window(it, pid, bcHeads.value, maxSpan), templates, maxSpan,
          entries(pid), counts(pid), _ => false)
        Iterator.single(block(cover, offsets(pid), firstSlot))
      }
    }
  }

  /** Extract with `templates` from `sample`, the whole file: one task
    * covers it from line 0 into one block, so there is no heads job, no
    * exit table and no stitch, and each table is one partition.
    */
  private def extractWhole(spark: SparkSession, sample: Array[String], templates: Vector[Template],
      maxSpan: Int): SparkExtraction = {
    val bcSample = spark.sparkContext.broadcast(sample)
    frames(spark, templates, onePartition = true, () => bcSample.destroy()) { firstSlot =>
      spark.sparkContext.parallelize(Seq(0), 1).map { _ =>
        val lines = ArraySeq.unsafeWrapArray(bcSample.value)
        block(new Datamaran.Cover(lines, templates, maxSpan, 0, lines.length, _ => false), 0L, firstSlot)
      }
    }
  }

  /** The rows of every record `cover` places, its lines numbered from
    * `base`; a row of template tid's array table t (-1 for the root) goes to
    * output table firstSlot(tid) + t + 1.
    */
  private def block(cover: Datamaran.Cover, base: Long, firstSlot: Vector[Int]): Block = {
    val tableRows = Array.fill(firstSlot.last)(Array.newBuilder[Row])
    val recordRows = Array.newBuilder[Row]
    cover.records.foreach { r =>
      val start: java.lang.Long = base + r.start
      val span: java.lang.Integer = r.span
      recordRows += new GenericRow(Array[Any](r.typeIdx, start, span))
      r.parsed.rows.foreach { tr =>
        val row = new Array[Any](2 + tr.values.length)
        row(0) = start
        // the root table is keyed (record_id, span), an array table (record_id, ord)
        row(1) = if (tr.table < 0) span else tr.ord
        tr.values.copyToArray(row, 2)
        tableRows(firstSlot(r.typeIdx) + tr.table + 1) += new GenericRow(row)
      }
    }
    Block(tableRows.map(_.result()), recordRows.result())
  }

  /** The extraction over the blocks `blocksOf(firstSlot)` builds, cached:
    * output table k is template tid's schema k - firstSlot(tid)
    * ([[Relational.schemas]]), and its DataFrame reads array k of each
    * block; with `onePartition` each DataFrame is declared one partition, so
    * its `count()` needs no exchange. `release()` unpersists the blocks and
    * runs `release`.
    */
  private def frames(spark: SparkSession, templates: Vector[Template], onePartition: Boolean, release: () => Unit)(
      blocksOf: Vector[Int] => RDD[Block]): SparkExtraction = {
    val schemas = templates.map(Relational.schemas)
    val firstSlot = schemas.scanLeft(0)(_ + _.length)
    val blocks = blocksOf(firstSlot).cache()
    def frame(rows: RDD[Row], schema: StructType): DataFrame = {
      val df = spark.createDataFrame(rows, schema)
      if (onePartition) df.coalesce(1) else df
    }
    val tables = schemas.zipWithIndex.flatMap { case (ss, tid) =>
      ss.zipWithIndex.map { case (sch, j) =>
        val k = firstSlot(tid) + j
        val key =
          if (sch.path.isEmpty) StructField("span", IntegerType, nullable = false)
          else StructField("ord", StringType, nullable = false)
        val schema = StructType(StructField("record_id", LongType, nullable = false) +: key +:
          // column names: a field path's dots become underscores
          sch.cols.map(c => StructField(c.replace('.', '_'), StringType, nullable = false)))
        ExtractedTable(tid, sch.path, frame(blocks.flatMap(_.tables(k).iterator), schema))
      }
    }

    val recSchema = StructType(Seq(
      StructField("type_idx", IntegerType, nullable = false),
      StructField("start_line", LongType, nullable = false),
      StructField("span", IntegerType, nullable = false)
    ))
    val ex = SparkExtraction(frame(blocks.flatMap(_.records.iterator), recSchema), tables)
    ex.onRelease = () => {
      blocks.unpersist(blocking = false)
      release()
    }
    ex
  }

  /** Partition `pid`'s lines followed by the next `maxSpan - 1` lines of
    * the dataset, read off the heads of the partitions after it.
    */
  private def window(part: Iterator[String], pid: Int, heads: Array[Array[String]], maxSpan: Int): IndexedSeq[String] = {
    val tail = heads.iterator.drop(pid + 1).flatMap(_.iterator).take(maxSpan - 1)
    ArraySeq.unsafeWrapArray((part ++ tail).toArray)
  }

  /** For each entry offset e < maxSpan, the window line where the cover
    * entered at e leaves the partition's `n` lines (at or past `n`; e itself
    * when e >= n, since such an entry skips the partition). Only the
    * offsets below `entered` are computed; the others keep e.
    */
  private def exitTable(window: IndexedSeq[String], n: Int, ts: Vector[Template], maxSpan: Int,
      entered: Int): Array[Int] = {
    val exits = Array.tabulate(maxSpan)(identity)
    if (n > 0) {
      // the lines the e = 0 cover visits: all but the inner lines of its records
      val visited = new java.util.BitSet(n)
      visited.set(0, n)
      val first = new Datamaran.Cover(window, ts, maxSpan, 0, n, _ => false)
      while (first.advance()) visited.clear(first.start + 1, math.min(first.start + first.span, n))
      exits(0) = first.exit
      var e = 1
      while (e < math.min(n, entered)) {
        val c = new Datamaran.Cover(window, ts, maxSpan, e, n, i => visited.get(i))
        while (c.advance()) ()
        exits(e) = if (c.exit < n) exits(0) else c.exit
        e += 1
      }
    }
    exits
  }

  /** End-to-end: infer structure on the file's first `sampleLines` lines,
    * then extract the whole file. When `take(sampleLines)` returns fewer
    * lines than it asked for, the sample is the whole file and one task
    * covers it, so no Spark job runs between the `take` and the first table
    * evaluated, and each table's `count()` is one job. Otherwise [[extract]]
    * runs over the partitions of `lines`. This is
    * not yet the paper's whole-file sampling (§9.1): [[Datamaran.infer]]
    * samples chunks only inside that head, so a format that first appears
    * after it is extracted as noise (ROADMAP item 6).
    */
  def inferAndExtract(
      spark: SparkSession,
      lines: RDD[String],
      p: DmParams = DmParams(),
      sampleLines: Int = 20000
  ): (Inference, SparkExtraction) = {
    val sample = lines.take(sampleLines)
    val inf = Datamaran.infer(ArraySeq.unsafeWrapArray(sample), p)
    val templates = inf.types.map(_.template)
    val ex =
      if (sample.length < sampleLines) extractWhole(spark, sample, templates, p.maxSpan)
      else extract(spark, lines, templates, p.maxSpan)
    (inf, ex)
  }
}
