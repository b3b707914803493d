package repro.core

/** Every field of a parse as (path, value), in template order with arrays
  * flattened, read through `Parsed.visit`.
  */
object ParsedFields {
  def apply(p: Parsed): Vector[(String, String)] = {
    val out = Vector.newBuilder[(String, String)]
    p.visit(f => out += (f.path -> f.text), (_, _) => ())
    out.result()
  }
}
