package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** Generation step: candidate enumeration, hash coverage, charset search,
  * sampling, pruning.
  */
class GenerationSpec extends AnyFunSuite {

  private val p = DmParams(sampleMaxChars = Int.MaxValue)

  private def csvLines(n: Int): Vector[String] =
    (0 until n).map(i => s"$i,${i * 2},${i % 7}").toVector

  test("buildCandidates enumerates all O(nL) boundary pairs") {
    val lines = Vector("a", "b", "c")
    val cand = Generation.buildCandidates(lines, p.copy(maxSpan = 2), Vector.empty)
    // spans: (0,1),(0,2),(1,1),(1,2),(2,1) => 5 positions
    assert(cand.posTextId.count(_ >= 0) == 5)
  }

  test("buildCandidates dedupes identical candidate texts") {
    val lines = Vector("x,y", "x,y", "x,y")
    val cand = Generation.buildCandidates(lines, p.copy(maxSpan = 1), Vector(','))
    assert(cand.texts.length == 1)
    assert(cand.posTextId.toVector == Vector(0, 0, 0))
  }

  test("buildCandidates line prefix sums count the newline") {
    val cand = Generation.buildCandidates(Vector("ab", "c"), p, Vector.empty)
    assert(cand.linePrefix.toVector == Vector(0L, 3L, 5L))
    assert(cand.totalChars == 5L)
  }

  test("genST finds the csv template with full unique coverage") {
    val lines = csvLines(60)
    val cand = Generation.buildCandidates(lines, p, Vector(','))
    val memo = new Generation.GenMemo
    val stats = Generation.genST(lines, Set(','), p, memo, cand)
    val csv = stats.find(_.template.pretty == "(F,)*F\\n")
    assert(csv.isDefined)
    assert(csv.get.coverage == cand.totalChars) // every char is covered
  }

  test("genST unique coverage does not overcount k-fold stacks") {
    val lines = csvLines(60)
    val cand = Generation.buildCandidates(lines, p, Vector(','))
    val memo = new Generation.GenMemo
    val stats = Generation.genST(lines, Set(','), p, memo, cand)
    // no bin may claim more characters than the dataset has
    assert(stats.forall(_.coverage <= cand.totalChars))
  }

  test("genST respects the alpha threshold") {
    // 9 csv lines + 91 unique junk lines: csv is under alpha=20%
    val lines = csvLines(9) ++ (0 until 91).map(i => s"junk${i}x${i * 31}")
    val cand = Generation.buildCandidates(lines.toVector, p.copy(alpha = 0.2), Vector(','))
    val memo = new Generation.GenMemo
    val stats = Generation.genST(lines.toVector, Set(','), p.copy(alpha = 0.2), memo, cand)
    assert(!stats.exists(_.template.pretty == "(F,)*F\\n"))
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
    val s1 = TemplateStat(t, 10, 5, 1)
    val s2 = TemplateStat(t, 30, 5, 2)
    assert(Generation.dedupe(Vector(s1, s2)) == Vector(s2))
  }

  test("prune keeps top M by assimilation, shorter template on ties") {
    val tShort = Template(Vector(TField, TChar('\n')))
    val tLong = Template(Vector(TField, TChar(','), TField, TChar(','), TField, TChar('\n')))
    val stats = Vector(TemplateStat(tLong, 100, 10, 1), TemplateStat(tShort, 100, 10, 1))
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
    assert(TemplateStat(t, 100, 25, 1).assimilation == 2500.0)
  }

  test("multi-line record template survives generation") {
    val lines = (0 until 50).flatMap(i => Vector(s"BEGIN $i", s"  v=${i * 2}", "END")).toVector
    val stats = Generation.exhaustiveSearch(lines, p)
    val multi = stats.filter(_.template.minLines == 3)
    assert(multi.nonEmpty, stats.map(_.template.pretty).take(10).mkString("; "))
  }
}
