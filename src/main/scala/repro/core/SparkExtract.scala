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
  *     e < L, where the cover entered at e leaves the partition, which for
  *     e >= 1 is known once it joins the e = 0 cover ([[exitTable]]);
  *  3. the driver stitches the entries left to right through the tables,
  *     and the cached rows stage replays each partition's cover from its
  *     entry, emitting the relational rows (§3.3/Fig 7) of every record.
  *     A partition's rows are cached as one block, an `Array[Row]` per
  *     output table with the records table in slot 0, and each table's
  *     DataFrame reads its own slot. One object per partition, not one per
  *     row, because Spark sizes a deserialized cache by walking its
  *     elements' object graphs as it grows, while it only samples the
  *     elements of a large array.
  *
  * A file that [[inferAndExtract]]'s sample already holds whole skips steps
  * 1-3: one task covers the sample from line 0 into one cached block. Both
  * cases build the block with one cover-to-rows loop and the tables with one
  * set of schemas, and blocks in one partition give one-partition tables.
  */
object SparkExtract {

  /** One output table: `typeIdx` identifies the record type, `path` the
    * Array node ("" = root record table).
    */
  final case class ExtractedTable(typeIdx: Int, path: String, df: DataFrame)

  /** The records table (type_idx, start_line, span per record) and every output table. */
  final class SparkExtraction private[SparkExtract] (val records: DataFrame, val tables: Vector[ExtractedTable],
      free: () => Unit) {
    private var released = false

    /** Unpersist the cached rows and destroy the broadcast of the call that
      * made this extraction (`free`); a second call does nothing. Call it once
      * its tables are written: the DataFrames cannot be evaluated afterwards.
      */
    def release(): Unit = if (!released) { released = true; free() }
  }

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

    val blocks = lines.mapPartitionsWithIndex { (pid, it) =>
      val cover = new Datamaran.Cover(window(it, pid, bcHeads.value, maxSpan), templates, maxSpan,
        entries(pid), counts(pid))
      Iterator.single(block(cover, offsets(pid), slots(templates)))
    }
    frames(spark, templates, blocks, () => bcHeads.destroy())
  }

  /** Extract with `templates` from `sample`, the whole file: one task
    * covers it from line 0 into one block, so there is no heads job, no
    * exit table and no stitch, and each table is one partition.
    */
  private def extractWhole(spark: SparkSession, sample: Array[String], templates: Vector[Template],
      maxSpan: Int): SparkExtraction = {
    val bcSample = spark.sparkContext.broadcast(sample)
    val blocks = spark.sparkContext.parallelize(Seq(0), 1).map { _ =>
      val lines = ArraySeq.unsafeWrapArray(bcSample.value)
      block(new Datamaran.Cover(lines, templates, maxSpan, 0, lines.length), 0L, slots(templates))
    }
    frames(spark, templates, blocks, () => bcSample.destroy())
  }

  /** Where each template's output tables sit in a block: slot 0 holds the
    * records table, and template tid's table t (-1 for the root) sits at
    * firstSlot(tid) + t + 1; the last entry is the slot count.
    */
  private def slots(templates: Vector[Template]): Vector[Int] =
    templates.scanLeft(1)(_ + _.program.arrays.length + 1)

  /** The rows of every record `cover` places, its lines numbered from
    * `base`, in the slots of [[slots]].
    */
  private def block(cover: Datamaran.Cover, base: Long, firstSlot: Vector[Int]): Array[Array[Row]] = {
    val rows = Array.fill(firstSlot.last)(Array.newBuilder[Row])
    cover.records.foreach { r =>
      val start: java.lang.Long = base + r.start
      val span: java.lang.Integer = r.span
      rows(0) += new GenericRow(Array[Any](r.typeIdx, start, span))
      r.parsed.rows.foreach { tr =>
        val row = new Array[Any](2 + tr.values.length)
        row(0) = start
        // the root table is keyed (record_id, span), an array table (record_id, ord)
        row(1) = if (tr.table < 0) span else tr.ord
        tr.values.copyToArray(row, 2)
        rows(firstSlot(r.typeIdx) + tr.table + 1) += new GenericRow(row)
      }
    }
    rows.map(_.result())
  }

  /** The extraction over `blocks`, cached: output table k of template tid is
    * its schema k ([[Relational.schemas]]) and reads slot firstSlot(tid) + k
    * of each block. Over blocks in one partition each DataFrame is declared
    * one partition, so its `count()` needs no exchange. `release()`
    * unpersists the blocks and runs `free`.
    */
  private def frames(spark: SparkSession, templates: Vector[Template], blocks: RDD[Array[Array[Row]]],
      free: () => Unit): SparkExtraction = {
    blocks.cache()
    def frame(slot: Int, schema: StructType): DataFrame = {
      val df = spark.createDataFrame(blocks.flatMap(_(slot).iterator), schema)
      if (blocks.getNumPartitions == 1) df.coalesce(1) else df
    }
    val firstSlot = slots(templates)
    val tables = templates.zipWithIndex.flatMap { case (t, tid) =>
      Relational.schemas(t).zipWithIndex.map { case (sch, k) =>
        val key =
          if (sch.path.isEmpty) StructField("span", IntegerType, nullable = false)
          else StructField("ord", StringType, nullable = false)
        val schema = StructType(StructField("record_id", LongType, nullable = false) +: key +:
          // column names: a field path's dots become underscores
          sch.cols.map(c => StructField(c.replace('.', '_'), StringType, nullable = false)))
        ExtractedTable(tid, sch.path, frame(firstSlot(tid) + k, schema))
      }
    }

    val recSchema = StructType(Seq(
      StructField("type_idx", IntegerType, nullable = false),
      StructField("start_line", LongType, nullable = false),
      StructField("span", IntegerType, nullable = false)
    ))
    new SparkExtraction(frame(0, recSchema), tables, () => {
      blocks.unpersist(blocking = false)
      free()
    })
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
    *
    * The e = 0 cover runs in full and marks each line where it places a
    * record. Every other cover runs until it places a record at one of
    * those lines, and then leaves where the e = 0 cover does: a cover's
    * path from a line depends only on that line, so two covers that place
    * a record at the same line are one from there on. Meeting the e = 0
    * cover anywhere else changes nothing: on a line it left as noise both
    * covers fail and step on, so their next records start together, and if
    * no record remains before `n`, both leave at `n`. A cover that never
    * joins runs to its own exit.
    */
  private def exitTable(window: IndexedSeq[String], n: Int, ts: Vector[Template], maxSpan: Int,
      entered: Int): Array[Int] = {
    val exits = Array.tabulate(maxSpan)(identity)
    if (n > 0) {
      val starts = new java.util.BitSet(n)
      val first = new Datamaran.Cover(window, ts, maxSpan, 0, n)
      while (first.advance()) starts.set(first.start)
      exits(0) = first.exit
      var e = 1
      while (e < math.min(n, entered)) {
        val c = new Datamaran.Cover(window, ts, maxSpan, e, n)
        var joined = false
        while (!joined && c.advance()) joined = starts.get(c.start)
        exits(e) = if (joined) exits(0) else c.exit
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
    * runs over the partitions of `lines`. This is not yet the paper's
    * whole-file sampling (§9.1): [[Datamaran.infer]] samples chunks only
    * inside that head, so a format that first appears after it is
    * extracted as noise (ROADMAP item 6).
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
