package repro.core

/** Row-for-row comparison of a Spark extraction with local records. */
object SparkEquality {

  /** Each table's rows keyed by (typeIdx, path), every row its columns
    * joined, sorted: the tables' row multisets, from local records through
    * `Relational.toRows`.
    */
  def localRows(recs: Vector[RecordInstance]): Map[(Int, String), Vector[String]] =
    (for (r <- recs; tr <- Relational.toRows(r.parsed)) yield {
      val key = if (tr.path.isEmpty) r.span.toString else tr.ord
      (r.typeIdx, tr.path) -> (r.start.toString +: key +: tr.values).mkString("\u0001")
    }).groupMap(_._1)(_._2).view.mapValues(_.sorted).toMap

  /** How `ex` differs from the local records `recs`: first its records
    * table, in order, then each table's row multiset. None when equal.
    */
  def mismatch(ex: SparkExtract.SparkExtraction, recs: Vector[RecordInstance]): Option[String] = {
    val got = ex.records.collect().map(r => (r.getInt(0), r.getLong(1), r.getInt(2))).toVector
    val want = recs.map(r => (r.typeIdx, r.start.toLong, r.span))
    if (got != want) Some(s"records differ (${got.length} vs ${want.length} local)")
    else {
      val wantRows = localRows(recs)
      ex.tables.collectFirst {
        case t if t.df.collect().map(_.toSeq.mkString("\u0001")).toVector.sorted !=
            wantRows.getOrElse((t.typeIdx, t.path), Vector.empty) =>
          s"table ${t.typeIdx} '${t.path}' rows differ"
      }
    }
  }
}
