package repro.core

import scala.collection.mutable

/** Steps 3–4 of the generation step (paper §4.1, Figure 10):
  *
  *  - the record template: under an RT-CharSet, every maximal run of
  *    non-formatting characters is one field (Assumption 2);
  *    [[LineTemplates.reduceLine]] builds it line by line, and a
  *    candidate's template is its lines' templates concatenated.
  *  - [[reduce]]: fold the record template into its *minimal structure
  *    template* by repeatedly rewriting `A x A x … A y` (x, y single
  *    characters, x != y) into the array form `({A}x)*{A}y`. Two records of
  *    the same type that differ only in repeat counts reduce to the same
  *    minimal template — the property the generation hash-table relies on.
  */
object TemplateOps {

  /** Upper bound on the array-body length (in items) the reducer searches.
    * Real record structures have short repeating units (a list element is
    * a handful of fields and separators); the cap bounds the
    * O(n · maxUnit · n) scan for degenerate candidates.
    */
  val MaxUnitItems = 12

  /** Candidates whose item sequence is longer than this are discarded by the
    * generation step (they are never plausible single records).
    */
  val MaxTemplateItems = 800

  /** The leftmost-shortest array fold starting at or after `from`, applied
    * in place; returns the fold start position, or -1 if no fold applies.
    *
    * Searches for the pattern `A x A x … A y` with k >= 1 separators, where
    * `A` is a non-empty item sequence, `x`/`y` are literal characters and
    * `x != y`; replaces it with `TArray(A, x, y)`. Scanning order (ascending
    * start position, then ascending body length) makes reduction
    * deterministic, so identical records always reduce identically.
    */
  private def foldOnceFrom(buf: mutable.ArrayBuffer[TElem], from: Int): Int = {
    val n = buf.length
    var i = from
    while (i < n) {
      val maxA = math.min(MaxUnitItems, (n - i - 2) / 2)
      var a = 1
      while (a <= maxA) {
        buf(i + a) match {
          case TChar(x) =>
            // count k repeats of (A x), greedily
            var pos = i
            var k = 0
            var cont = true
            while (cont && pos + a < n) {
              if (sliceEq(buf, pos, i, a) && buf(pos + a) == TChar(x)) {
                k += 1; pos += a + 1
              } else cont = false
            }
            if (k >= 1 && pos + a < n && sliceEq(buf, pos, i, a)) {
              buf(pos + a) match {
                case TChar(y) if y != x =>
                  val body = Vector.from(buf.view.slice(i, i + a))
                  buf.remove(i, pos + a + 1 - i)
                  buf.insert(i, TArray(body, x, y))
                  return i
                case _ => ()
              }
            }
          case _ => ()
        }
        a += 1
      }
      i += 1
    }
    -1
  }

  /** buf[at..at+len) == buf[ref..ref+len) */
  private def sliceEq(buf: mutable.ArrayBuffer[TElem], at: Int, ref: Int, len: Int): Boolean = {
    if (at == ref) return true
    var j = 0
    while (j < len) {
      if (buf(at + j) != buf(ref + j)) return false
      j += 1
    }
    true
  }

  /** Reduce to the minimal structure template: repeat the leftmost fold to
    * a fixpoint. After a fold at position i, scanning resumes a bounded
    * window to the left (new folds overwhelmingly appear at or after the
    * previous one); a final full pass from 0 guarantees the result is
    * globally fold-free, so the output is a true fixpoint and identical
    * inputs always reduce identically.
    */
  def reduce(items: Vector[TElem]): Vector[TElem] = {
    val buf = mutable.ArrayBuffer.from(items)
    var from = 0
    var confirming = false
    var done = false
    while (!done) {
      val hit = foldOnceFrom(buf, from)
      if (hit >= 0) {
        from = math.max(0, hit - 2 * MaxUnitItems)
        confirming = false
      } else if (from > 0 && !confirming) {
        from = 0
        confirming = true
      } else {
        done = true
      }
    }
    Vector.from(buf)
  }

  /** Interned minimal templates of single lines: steps 3–4 for the
    * generation step and the RecordBreaker baseline. A candidate record's
    * minimal template is its lines' reduced items concatenated,
    * `Template(ids.flatMap(items))`; it is implausible, and discarded, when
    * it has no field (a record with zero fields extracts nothing) or more
    * than [[MaxTemplateItems]] items.
    *
    * Reduction is strictly PER LINE: the array form cannot legally span a
    * '\n' boundary anyway (identical '\n'-terminated line repeats would
    * need sep == term, which Assumption 3 forbids), and cross-line folds
    * only ever produced degenerate noise absorbers. Line-wise reduction
    * also makes a k-record concatenation exactly k copies of the
    * single-record template, which the period-reduction canonicalization
    * then collapses.
    *
    * A line's shape — its record template with every field run collapsed
    * to one mark — is reduced once per distinct shape. Ids are handed out
    * per distinct reduced template, not per shape: "a b" and "a b c" under
    * {' '} have different shapes but the same minimal template `(F )*F\n`,
    * and must share an id so that candidates built from them share a hash
    * bin, and RecordBreaker's lines one struct. Every line template ends in
    * its only top-level line-ending item, so concatenations of line
    * templates are equal exactly when their id sequences are.
    */
  final class LineTemplates {
    private val idByShape = mutable.HashMap.empty[String, Int]
    private val idByEncoding = mutable.HashMap.empty[String, Int]
    private val reduced = mutable.ArrayBuffer.empty[Vector[TElem]]
    private val fields = mutable.ArrayBuffer.empty[Boolean]

    /** Items of the line's template: the minimal template's, or the raw
      * record template's when that exceeds [[MaxTemplateItems]] (such a
      * line is never reduced; its candidates are discarded).
      */
    def items(id: Int): Vector[TElem] = reduced(id)

    def hasField(id: Int): Boolean = fields(id)

    /** Template of `line` + '\n' with formatting characters `literal`,
      * packed as `(id << 32) | literalChars` ([[LineTemplates.id]],
      * [[LineTemplates.literalChars]]); literalChars counts the '\n'.
      */
    def reduceLine(line: String, literal: Char => Boolean): Long = {
      val shape = new StringBuilder(line.length + 1)
      var lit = 1
      var inField = false
      var i = 0
      while (i < line.length) {
        val ch = line.charAt(i)
        if (literal(ch)) {
          shape.append(ch); lit += 1; inField = false
        } else if (!inField) {
          shape.append('\u0001'); inField = true
        }
        i += 1
      }
      shape.append('\n')
      val key = shape.toString
      val id = idByShape.getOrElseUpdate(key, intern(key))
      (id.toLong << 32) | lit
    }

    private def intern(shape: String): Int = {
      val raw = shape.iterator.map {
        case '\u0001' => TField
        case c        => TChar(c)
      }.toVector
      val red = if (raw.length > MaxTemplateItems) raw else reduce(raw)
      idByEncoding.getOrElseUpdate(Template.encode(red), {
        reduced += red
        fields += shape.contains('\u0001')
        reduced.length - 1
      })
    }
  }

  object LineTemplates {
    def id(packed: Long): Int = (packed >>> 32).toInt
    def literalChars(packed: Long): Int = packed.toInt
  }
}
