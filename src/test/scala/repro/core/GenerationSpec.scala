package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers.samples
import scala.collection.mutable

/** Generation step: candidate enumeration, hash coverage, charset search,
  * sampling, pruning.
  */
class GenerationSpec extends AnyFunSuite {

  private val p = DmParams(sampleMaxChars = Int.MaxValue)

  private def csvLines(n: Int): Vector[String] =
    (0 until n).map(i => s"$i,${i * 2},${i % 7}").toVector

  private def index(lines: Vector[String], pp: DmParams, chars: Int) =
    new Generation.LineIndex(lines, pp.maxSpan, chars)

  /** Charset mask of `cs`, whose characters must all be enumerated. */
  private def mask(idx: Generation.LineIndex, cs: Char*): Int =
    cs.map(c => 1 << idx.enumChars.indexOf(c)).sum

  test("line index enumerates all O(nL) boundary pairs") {
    val lines = Vector("a", "b", "c")
    val pp = p.copy(maxSpan = 2, alpha = 0.0)
    val stats = Generation.genST(index(lines, pp, 0), 0, pp)
    // spans: (0,1),(0,2),(1,1),(1,2),(2,1) => 5 candidates; each bin covers
    // all 6 characters only if every one of its candidates was binned
    assert(stats.map(s => (s.template.pretty, s.coverage)).sorted ==
      Vector(("F\\n", 6L), ("F\\nF\\n", 6L)))
  }

  test("line index prefix sums count the newline") {
    val idx = index(Vector("ab", "c"), p, 0)
    assert(idx.linePrefix.toVector == Vector(0L, 3L, 5L))
    assert(idx.totalChars == 5L)
  }

  test("line ids are keyed by reduced encoding, not by line shape") {
    // different shapes, one minimal template (F )*F\n: one bin covers both lines
    val lines = Vector("a b", "a b c")
    val pp = p.copy(maxSpan = 1)
    val idx = index(lines, pp, 1)
    val stats = Generation.genST(idx, mask(idx, ' '), pp)
    assert(stats.map(_.template.pretty) == Vector("(F )*F\\n"))
    assert(stats.head.coverage == idx.totalChars)
  }

  test("genST finds the csv template with full unique coverage") {
    val lines = csvLines(60)
    val idx = index(lines, p, 1)
    val stats = Generation.genST(idx, mask(idx, ','), p)
    val csv = stats.find(_.template.pretty == "(F,)*F\\n")
    assert(csv.isDefined)
    assert(csv.get.coverage == idx.totalChars) // every char is covered
  }

  test("genST unique coverage does not overcount k-fold stacks") {
    val lines = csvLines(60)
    val idx = index(lines, p, 1)
    val stats = Generation.genST(idx, mask(idx, ','), p)
    // no bin may claim more characters than the dataset has
    assert(stats.forall(_.coverage <= idx.totalChars))
  }

  test("genST respects the alpha threshold") {
    // 9 csv lines + 91 unique junk lines: csv is under alpha=20%
    val lines = csvLines(9) ++ (0 until 91).map(i => s"junk${i}x${i * 31}")
    val pp = p.copy(alpha = 0.2)
    val idx = index(lines, pp, 1)
    val stats = Generation.genST(idx, mask(idx, ','), pp)
    assert(!stats.exists(_.template.pretty == "(F,)*F\\n"))
  }

  test("property: genST matches a brute-force GenST for every charset") {
    val specials = Vector(',', ':', ' ', '[')
    val field = Gen.alphaNumStr.map(_.take(3)) // may be empty
    // lists of one separator with varying length: different shapes, one template
    val listLine = for {
      head <- Gen.oneOf("", "[", "x:")
      sep <- Gen.oneOf(specials)
      k <- Gen.choose(1, 4)
      fields <- Gen.listOfN(k, field)
    } yield head + fields.mkString(sep.toString)
    val freeLine = for {
      n <- Gen.choose(0, 5)
      parts <- Gen.listOfN(n + 1, Gen.frequency(4 -> field, 1 -> Gen.oneOf(specials).map(_.toString)))
    } yield parts.mkString
    val genLine = Gen.frequency(2 -> listLine, 1 -> freeLine)
    val genLines = for {
      pool <- Gen.listOfN(4, genLine)
      n <- Gen.choose(1, 14)
      picks <- Gen.listOfN(n, Gen.oneOf(pool)) // repeats make multi-line bins
    } yield picks.toVector
    val pp = p.copy(maxSpan = 3, alpha = 0.05)
    for (lines <- samples(genLines, 60, seed = 7)) {
      val idx = index(lines, pp, 4)
      for (cs <- 0 until 1 << idx.enumChars.length) {
        val chars = idx.enumChars.indices.collect { case b if (cs & (1 << b)) != 0 => idx.enumChars(b) }.toSet
        val got = Generation.genST(idx, cs, pp)
          .map(s => (s.template.canonical, s.coverage, s.nonFieldCoverage)).sorted
        assert(got == bruteForceGenST(lines, chars, pp), s"lines=$lines charset=$chars")
      }
    }
  }

  /** GenST as the paper states it, without the line interner: every
    * candidate's template is its lines' record templates, each reduced
    * with [[TemplateOps.reduce]], concatenated; candidates are binned by
    * that template.
    */
  private def bruteForceGenST(lines: Vector[String], cs: Set[Char], pp: DmParams) = {
    // a line's record template: each maximal run of non-formatting characters is one field
    def lineTemplate(line: String): Vector[TElem] =
      (line + "\n").foldLeft(Vector.empty[TElem]) {
        case (acc, ch) if ch == '\n' || cs.contains(ch) => acc :+ TChar(ch)
        case (acc, _) if acc.lastOption.contains(TField) => acc
        case (acc, _) => acc :+ TField
      }
    val bins = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[(Int, Int, Int)]]
    for (i <- lines.indices; span <- 1 to pp.maxSpan if i + span <= lines.length) {
      val cand = lines.slice(i, i + span)
      val raw = cand.map(lineTemplate)
      val items = raw.flatMap(TemplateOps.reduce)
      if (raw.exists(_.contains(TField)) && items.length <= TemplateOps.MaxTemplateItems) {
        val literal = cand.map(l => 1 + l.count(cs.contains)).sum
        bins.getOrElseUpdate(Template(items).canonical, mutable.ArrayBuffer.empty) += ((i, i + span, literal))
      }
    }
    val lineChars = lines.map(_.length + 1L)
    val total = lineChars.sum
    bins.toVector.flatMap { case (canon, cands) =>
      val covered = cands.flatMap { case (s, e, _) => s until e }.distinct
      val cov = covered.map(lineChars).sum
      val sumCov = cands.map { case (s, e, _) => lineChars.slice(s, e).sum }.sum
      val sumNf = cands.map(_._3.toLong).sum
      if (cov >= pp.alpha * total)
        Some((canon, cov, math.round(cov * (sumNf.toDouble / sumCov))))
      else None
    }.sorted
  }

  test("exhaustive search finds the true template of a two-charset format") {
    val lines = (0 until 80).map(i => s"[$i:${i * 3}] name$i").toVector
    val stats = Generation.exhaustiveSearch(lines, p)
    assert(stats.exists(_.template.charset.contains('[')))
  }

  test("greedy search also finds a high-coverage template") {
    val lines = (0 until 80).map(i => s"[$i:${i * 3}] name$i").toVector
    val stats = Generation.greedySearch(lines, p)
    assert(stats.nonEmpty)
    assert(stats.exists(_.coverage >= 0.9 * lines.map(_.length + 1L).sum))
  }

  test("greedy search explores all singleton charsets") {
    // correct charset is {','}; a frequent decoy '.' lives inside fields
    val lines = (0 until 80).map(i => s"a.b.c.$i,x.y.$i,$i").toVector
    val stats = Generation.greedySearch(lines, p)
    assert(stats.exists(_.template.pretty == "(F,)*F\\n"))
  }

  test("dedupe keeps the maximum-coverage instance per canonical") {
    val t = Template(Vector(TField, TChar('\n')))
    val s1 = TemplateStat(t, 10, 5)
    val s2 = TemplateStat(t, 30, 5)
    assert(Generation.dedupe(Vector(s1, s2)) == Vector(s2))
  }

  test("prune keeps top M by assimilation, shorter template on ties") {
    val tShort = Template(Vector(TField, TChar('\n')))
    val tLong = Template(Vector(TField, TChar(','), TField, TChar(','), TField, TChar('\n')))
    val stats = Vector(TemplateStat(tLong, 100, 10), TemplateStat(tShort, 100, 10))
    val top1 = Generation.prune(stats, p.copy(topM = 1))
    assert(top1.head.template == tShort)
  }

  test("sampleLines keeps small datasets whole") {
    val lines = csvLines(100)
    assert(Generation.sampleLines(lines, DmParams(sampleMaxChars = 100000)) == lines)
  }

  test("sampleLines bounds large datasets and keeps whole chunks") {
    val lines = (0 until 50000).map(i => s"line-$i-" + "x" * 40).toVector
    val chunk = Generation.SampleChunkLines
    val sample = Generation.sampleLines(lines, DmParams(sampleMaxChars = 100000))
    val chars = sample.map(_.length + 1L).sum
    assert(chars <= 150000, s"sample too big: $chars")
    assert(sample.length >= chunk)
    // chunks are contiguous runs of the original
    assert(sample.take(chunk) == lines.take(chunk))
  }

  test("sampleLines is deterministic") {
    val lines = (0 until 5000).map(i => s"v$i").toVector
    val pp = DmParams(sampleMaxChars = 5000)
    assert(Generation.sampleLines(lines, pp) == Generation.sampleLines(lines, pp))
  }

  test("assimilation score is Cov * NonFieldCov") {
    val t = Template(Vector(TField, TChar('\n')))
    assert(TemplateStat(t, 100, 25).assimilation == 2500.0)
  }

  test("multi-line record template survives generation") {
    val lines = (0 until 50).flatMap(i => Vector(s"BEGIN $i", s"  v=${i * 2}", "END")).toVector
    val stats = Generation.exhaustiveSearch(lines, p)
    val multi = stats.filter(_.template.lineGroups.length == 3)
    assert(multi.nonEmpty, stats.map(_.template.pretty).take(10).mkString("; "))
  }
}
