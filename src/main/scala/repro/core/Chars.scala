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

  /** Distinct candidate characters present in `lines`, most frequent
    * first, ties by character code. The generation step enumerates subsets
    * of a bounded prefix of this ranking (the paper's `c`).
    */
  def specialsByFrequency(lines: Iterable[String]): Vector[Char] = {
    val counts = new Array[Long](128) // every candidate is ASCII
    lines.foreach { line =>
      var i = 0
      while (i < line.length) {
        val ch = line.charAt(i)
        if (ch < 128) counts(ch.toInt) += 1
        i += 1
      }
    }
    Candidates.toVector.filter(c => counts(c.toInt) > 0).sortBy(c => (-counts(c.toInt), c.toInt))
  }

  /** Render a character for human-readable template display. */
  def show(c: Char): String = c match {
    case '\n' => "\\n"
    case '\t' => "\\t"
    case x    => x.toString
  }
}
