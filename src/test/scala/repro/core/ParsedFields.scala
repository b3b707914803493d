package repro.core

/** Every field of a parse as (path, value), in template order with arrays
  * flattened.
  */
object ParsedFields {
  def apply(p: Parsed): Vector[(String, String)] = {
    val out = Vector.newBuilder[(String, String)]
    def walk(ss: Vector[Seg]): Unit = ss.foreach {
      case FieldSeg(path, text) => out += (path -> text)
      case a: ArraySeg          => a.elems.foreach(walk)
      case _: LitSeg            => ()
    }
    walk(p.segs)
    out.result()
  }
}
