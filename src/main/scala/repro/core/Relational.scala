package repro.core

/** Conversion of parsed records into the normalized relational format of
  * paper §3.3 / Figure 7: every field placeholder is a column; every Array
  * node becomes a child table whose rows reference the parent record via
  * (record_id, ord) — `ord` is the dotted element-index path, so nested
  * arrays flatten into one table per Array node.
  */
object Relational {

  /** Schema of one output table of a template.
    *
    * @param path  "" for the record (root) table, else the array path
    *              ("a0", "a0.a1", ...)
    * @param cols  field paths at this nesting level, in template order
    */
  final case class TableSchema(path: String, cols: Vector[String])

  /** All table schemas of a template, root first, arrays in template
    * pre-order: the tables and columns of [[Template.program]].
    */
  def schemas(t: Template): Vector[TableSchema] = {
    val p = t.program
    Vector.tabulate(p.arrays.length + 1) { k =>
      val owner = k - 1 // -1 is the root table
      TableSchema(if (owner < 0) "" else p.arrays(owner), p.columns.indices.collect {
        case c if p.owners(c) == owner => p.columns(c)
      }.toVector)
    }
  }

  /** Rows of one record: table path -> rows. The root table has one row of
    * `cols` values; each array table has one row per element with key
    * (ord = dotted index path) prepended by the caller.
    */
  final case class TableRow(path: String, ord: String, values: Vector[String])

  def toRows(parsed: Parsed): Vector[TableRow] = {
    val out = Vector.newBuilder[TableRow]
    def walk(segs: Vector[Seg], path: String, ord: String): Unit = {
      val fields = Vector.newBuilder[String]
      segs.foreach {
        case FieldSeg(_, v) => fields += v
        case _              => ()
      }
      out += TableRow(path, ord, fields.result())
      segs.foreach {
        case ArraySeg(apath, _, elems) =>
          elems.zipWithIndex.foreach { case (es, i) =>
            walk(es, apath, if (ord.isEmpty) i.toString else s"$ord.$i")
          }
        case _ => ()
      }
    }
    walk(parsed.segs, "", "")
    out.result()
  }
}
