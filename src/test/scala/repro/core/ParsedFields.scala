package repro.core

/** Every field of `text` as one record of `t`, as (column path, value) in
  * parse order (arrays flattened), read from the parse buffer.
  */
object ParsedFields {
  def apply(t: Template, text: String): Option[Vector[(String, String)]] =
    ParseRecord.whole(t, text).map { case (lines, buf) =>
      Vector.tabulate(buf.fieldCount)(k =>
        t.program.columns(buf.column(k)) -> lines(buf.line(k)).substring(buf.from(k), buf.to(k)))
    }
}
