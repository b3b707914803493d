package repro.core

/** Character-class policy for DATAMARAN (paper §3.2).
  *
  * Assumption 2 (Non-Overlapping) splits every record's characters into
  * RT-CharSet (formatting) and F-CharSet (field content). The paper further
  * fixes a universe `RT-CharSet-Candidate` of characters that may ever act as
  * formatting: special (punctuation / whitespace) characters. The generation
  * step then enumerates subsets of the candidates present in the data.
  *
  * The end-of-line character '\n' is always structural: records and noise
  * blocks are demarcated by '\n' (Definition 2.4), so every enumerated
  * RT-CharSet implicitly contains it.
  */
object Chars {

  /** All characters that may appear in a record template (besides '\n'). */
  val Candidates: Set[Char] =
    ("\t " + "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~").toSet

  /** Distinct candidate characters present in `text` (excluding '\n'),
    * most frequent first. The generation step enumerates subsets of a
    * bounded prefix of this ranking (the paper's `c`).
    */
  def specialsByFrequency(text: CharSequence): Vector[Char] = {
    val counts = new java.util.HashMap[Char, Long]()
    var i = 0
    while (i < text.length) {
      val ch = text.charAt(i)
      if (ch != '\n' && Candidates.contains(ch)) counts.merge(ch, 1L, _ + _)
      i += 1
    }
    import scala.jdk.CollectionConverters._
    counts.asScala.toVector.sortBy { case (ch, n) => (-n, ch.toInt) }.map(_._1)
  }

  /** Render a character for human-readable template display. */
  def show(c: Char): String = c match {
    case '\n' => "\\n"
    case '\t' => "\\t"
    case x    => x.toString
  }
}
