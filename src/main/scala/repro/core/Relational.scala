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

  /** One output row: the array id and path of its table (-1 and "" for the
    * root), the dotted element-index path (ord) of an array row, and the
    * table's columns.
    */
  final case class TableRow(table: Int, path: String, ord: String, values: Vector[String])

  /** A record's rows: the root row, then each element's row before the rows
    * of the arrays inside it.
    */
  def toRows(parsed: Parsed): IndexedSeq[TableRow] = parsed.rows
}
