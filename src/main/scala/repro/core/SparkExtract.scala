package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

/** Distributed extraction (the O(T_data) step the paper calls "eminently
  * parallelizable", §5.2.2), as a two-phase DataFrame/RDD dataflow:
  *
  *  Phase 1 (parallel): every partition scans its lines plus an (L-1)-line
  *  overlap tail borrowed from the following partitions, and emits for each
  *  line the first (template-priority, smallest-span) match starting there.
  *
  *  Driver (tiny): the (start, templateId, span) stream — a few bytes per
  *  line — is resolved greedily left-to-right into a non-overlapping record
  *  cover, exactly the contract of [[Datamaran.extract]].
  *
  *  Phase 2 (parallel): partitions re-parse the accepted spans (only the
  *  (start, templateId, span) stream crosses the stage boundary, not the
  *  phase-1 parses) and emit the normalized relational rows (paper §3.3/Fig 7)
  *  as DataFrames.
  *
  * Tests assert equivalence with the sequential extractor, including
  * records straddling partition boundaries.
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
  )

  /** Distribute `lines` and extract with `templates` (priority order). */
  def extract(
      spark: SparkSession,
      lines: RDD[String],
      templates: Vector[Template],
      maxSpan: Int
  ): SparkExtraction = {
    val sc = spark.sparkContext
    val canon = templates.map(_.canonical)
    val bcTemplates = sc.broadcast(canon)

    val idxed: RDD[(Long, String)] =
      lines.zipWithIndex().map { case (l, i) => (i, l) }.cache()

    // first (maxSpan - 1) lines of each partition, for overlap tails
    val heads: Map[Int, Array[String]] = idxed
      .mapPartitionsWithIndex { (pid, it) =>
        Iterator.single(pid -> it.take(maxSpan - 1).map(_._2).toArray)
      }
      .collect()
      .toMap
    val nParts = idxed.getNumPartitions
    def tailFor(pid: Int): Array[String] = {
      val out = Array.newBuilder[String]
      var need = maxSpan - 1
      var p = pid + 1
      while (need > 0 && p < nParts) {
        val h = heads.getOrElse(p, Array.empty)
        val take = math.min(need, h.length)
        out ++= h.take(take)
        need -= take
        p += 1
      }
      out.result()
    }
    val bcTails = sc.broadcast((0 until nParts).map(p => p -> tailFor(p)).toMap)

    // Phase 1: per-line first match
    val matches: Array[(Long, Int, Int)] = idxed
      .mapPartitionsWithIndex { (pid, it) =>
        val ts = bcTemplates.value.map(Template.decode)
        val buf = it.toArray
        if (buf.isEmpty) Iterator.empty
        else {
          val tail = bcTails.value.getOrElse(pid, Array.empty[String])
          val window: IndexedSeq[String] = buf.map(_._2).toIndexedSeq ++ tail
          val base = buf.head._1
          buf.indices.iterator.flatMap { i =>
            Datamaran.matchAt(window, i, ts, maxSpan).map(r => (base + i, r.typeIdx, r.span))
          }
        }
      }
      .collect()
      .sortBy(_._1)

    // Driver: greedy non-overlapping resolution (earliest start wins)
    val accepted = scala.collection.mutable.LongMap.empty[(Int, Int)]
    var cursor = 0L
    for ((start, tid, span) <- matches) {
      if (start >= cursor) {
        accepted.update(start, (tid, span))
        cursor = start + span
      }
    }
    val bcAccepted = sc.broadcast(accepted.toMap)

    // Phase 2: parse accepted spans, emit relational rows
    val rows: RDD[(Int, String, Row)] = idxed.mapPartitionsWithIndex { (pid, it) =>
      val ts = bcTemplates.value.map(Template.decode)
      val acc = bcAccepted.value
      val buf = it.toArray
      if (buf.isEmpty) Iterator.empty
      else {
        val tail = bcTails.value.getOrElse(pid, Array.empty[String])
        val window: IndexedSeq[String] = buf.map(_._2).toIndexedSeq ++ tail
        val base = buf.head._1
        buf.indices.iterator.flatMap { i =>
          val start = base + i
          acc.get(start) match {
            case Some((tid, span)) =>
              val parsed = Matcher
                .parse(ts(tid), Matcher.joinLines(window, i, span))
                .getOrElse(sys.error(s"phase-2 reparse failed at line $start"))
              Relational.toRows(parsed).iterator.map { tr =>
                // NB: Vector(start, span) would harmonize the Int span to
                // Long (numeric vararg widening) and break the row schema
                val key: Vector[Any] =
                  if (tr.path.isEmpty) Vector[Any](start: java.lang.Long, span: java.lang.Integer)
                  else Vector[Any](start: java.lang.Long, tr.ord)
                (tid, tr.path, Row.fromSeq(key ++ tr.values))
              }
            case None => Iterator.empty
          }
        }
      }
    }.cache()

    val tables = templates.zipWithIndex.flatMap { case (t, tid) =>
      Relational.schemas(t).map { sch =>
        val keyFields =
          if (sch.path.isEmpty)
            Seq(
              StructField("record_id", LongType, nullable = false),
              StructField("span", IntegerType, nullable = false)
            )
          else
            Seq(
              StructField("record_id", LongType, nullable = false),
              StructField("ord", StringType, nullable = false)
            )
        val schema = StructType(
          keyFields ++ sch.cols.map(c =>
            StructField(colName(c), StringType, nullable = false)
          )
        )
        val rdd = rows
          .filter { case (i, p, _) => i == tid && p == sch.path }
          .map(_._3)
        ExtractedTable(tid, sch.path, spark.createDataFrame(rdd, schema))
      }
    }

    val recSchema = StructType(Seq(
      StructField("type_idx", IntegerType, nullable = false),
      StructField("start_line", LongType, nullable = false),
      StructField("span", IntegerType, nullable = false)
    ))
    val recRows = sc.parallelize(
      accepted.toSeq.sortBy(_._1).map { case (s, (tid, span)) => Row(tid, s, span) },
      math.max(1, nParts)
    )
    SparkExtraction(spark.createDataFrame(recRows, recSchema), tables)
  }

  /** Column names for DataFrames: dots in field paths become underscores. */
  def colName(fieldPath: String): String = fieldPath.replace('.', '_')

  /** End-to-end: infer structure on a driver-side sample (the paper's own
    * sampling architecture, §9.1), then extract the full distributed
    * dataset.
    */
  def inferAndExtract(
      spark: SparkSession,
      lines: RDD[String],
      p: DmParams = DmParams(),
      sampleLines: Int = 20000
  ): (Inference, SparkExtraction) = {
    val sample = lines.take(sampleLines).toIndexedSeq
    val inf = Datamaran.infer(sample, p)
    val ex = extract(spark, lines, inf.types.map(_.template), p.maxSpan)
    (inf, ex)
  }
}
