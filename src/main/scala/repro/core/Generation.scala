package repro.core

import scala.collection.mutable

/** Coverage statistics of one structure-template hash bin (paper §4.1/§4.2).
  *
  * `coverage` follows Assumption 1's definition — the total length of the
  * instantiated records of the template — measured as the UNIQUE character
  * span covered by the bin's candidates (the boundary enumeration produces
  * overlapping candidates; summing them would triple-count k-fold
  * self-concatenations of the true template and rank them above it).
  * `nonFieldCoverage` scales `coverage` by the bin's formatting-character
  * fraction.
  */
final case class TemplateStat(
    template: Template,
    coverage: Long,
    nonFieldCoverage: Long,
    count: Long
) {
  /** Assimilation score G(T,S) = Cov × Non_Field_Cov (paper §4.2). */
  def assimilation: Double = coverage.toDouble * nonFieldCoverage.toDouble
}

/** Parameters of the structure search (paper Table 2 + §9.1). */
final case class DmParams(
    alpha: Double = 0.10,          // minimum coverage threshold (fraction)
    maxSpan: Int = 10,             // L: maximum lines per record
    topM: Int = 50,                // M: templates kept after pruning
    exhaustive: Boolean = true,    // exhaustive vs greedy RT-CharSet search
    maxExhaustiveChars: Int = 7,   // cap on c for the 2^c enumeration
    sampleMaxChars: Int = 400_000, // S_data bound for evaluation (§9.1)
    genSampleMaxChars: Int = 120_000 // S_data bound for generation (§9.1)
)

object Generation {

  /** Cap on c for the greedy O(c^2) RT-CharSet search. */
  val MaxGreedyChars = 10

  /** Lines per sampled chunk. */
  val SampleChunkLines = 250

  /** Evenly spaced chunk sampling (paper §9.1 "Sampling Technique"): take
    * whole chunks of consecutive lines, concatenated, until `maxChars` is
    * reached. Deterministic.
    */
  def sampleLines(lines: IndexedSeq[String], p: DmParams): IndexedSeq[String] = {
    val total = lines.iterator.map(_.length + 1L).sum
    if (total <= p.sampleMaxChars) return lines
    val chunk = SampleChunkLines
    val nChunks = math.max(1, (lines.length + chunk - 1) / chunk)
    // how many chunks fit the budget, assuming average line length
    val avgLine = total.toDouble / lines.length
    val linesBudget = math.max(chunk, (p.sampleMaxChars / avgLine).toInt)
    val keepChunks = math.max(1, linesBudget / chunk)
    if (keepChunks >= nChunks) return lines
    val stride = nChunks.toDouble / keepChunks
    val out = IndexedSeq.newBuilder[String]
    var k = 0
    while (k < keepChunks) {
      val c = math.min(nChunks - 1, math.round(k * stride).toInt)
      val from = c * chunk
      val until = math.min(lines.length, from + chunk)
      out ++= lines.slice(from, until)
      k += 1
    }
    out.result()
  }

  /** The paper's GenST(char_set): enumerate all candidate records (pairs of
    * line boundaries at most L lines apart), extract + reduce each, and
    * accumulate per-template coverage in a hash table; keep bins with at
    * least alpha% coverage of the scanned text.
    *
    * `memo` caches (candidate text, effective charset) -> canonical template,
    * shared across charset enumerations: a charset is first intersected with
    * the candidate's own special characters, so different enumerated subsets
    * frequently hit the same cache line.
    */
  private final class BinAcc {
    var sumCov = 0L
    var sumNf = 0L
    var count = 0L
    val spans = mutable.ArrayBuffer.empty[Long] // (startLine << 16) | span
  }

  /** Shared memoization across the charset enumeration of one search:
    * per-(candidate, effective-charset) results, plus the reduction cache
    * keyed on the pre-reduction record template (see
    * [[TemplateOps.minimalCanonical]]).
    */
  final class GenMemo {
    val perCandidate = mutable.HashMap.empty[(Int, Long), Option[(String, Int)]]
    val reduceCaches = new TemplateOps.ReduceCaches
  }

  def genST(
      lines: IndexedSeq[String],
      cs: Set[Char],
      p: DmParams,
      memo: GenMemo,
      candidates: CandidateIndex
  ): Vector[TemplateStat] = {
    val totalChars = candidates.totalChars
    val bins = mutable.HashMap.empty[String, BinAcc]
    val csMaskAll = candidates.maskOf(cs)
    val n = candidates.nLines
    val L = candidates.maxSpan
    var i = 0
    while (i < n) {
      var span = 1
      while (span <= L) {
        val ci = candidates.posTextId(i * L + span - 1)
        if (ci >= 0) {
          val text = candidates.texts(ci)
          val effMask = csMaskAll & candidates.specialMask(ci)
          val res = memo.perCandidate.getOrElseUpdate((ci, effMask), {
            val effCs = candidates.charsOf(effMask)
            TemplateOps.minimalCanonical(text, effCs, memo.reduceCaches)
          })
          res match {
            case Some((canon, fieldChars)) =>
              val bin = bins.getOrElseUpdate(canon, new BinAcc)
              bin.sumCov += text.length
              bin.sumNf += (text.length - fieldChars)
              bin.count += 1
              bin.spans += ((i.toLong << 16) | span)
            case None => ()
          }
        }
        span += 1
      }
      i += 1
    }
    val thresh = p.alpha * totalChars
    bins.iterator.flatMap { case (canon, bin) =>
      val cov = uniqueCoverage(bin.spans, candidates.linePrefix)
      if (cov >= thresh) {
        val nfFrac = if (bin.sumCov == 0) 0.0 else bin.sumNf.toDouble / bin.sumCov
        Some(TemplateStat(Template.decode(canon), cov, math.round(cov * nfFrac), bin.count))
      } else None
    }.toVector
  }

  /** Characters covered by the union of the line intervals. */
  private def uniqueCoverage(spans: mutable.ArrayBuffer[Long], pref: Array[Long]): Long = {
    if (spans.isEmpty) return 0L
    val sorted = spans.toArray
    java.util.Arrays.sort(sorted)
    var cov = 0L
    var curStart = -1
    var curEnd = -1 // exclusive
    var k = 0
    while (k < sorted.length) {
      val s = (sorted(k) >> 16).toInt
      val e = s + (sorted(k) & 0xffff).toInt
      if (curEnd < 0) { curStart = s; curEnd = e }
      else if (s <= curEnd) { if (e > curEnd) curEnd = e }
      else {
        cov += pref(curEnd) - pref(curStart)
        curStart = s; curEnd = e
      }
      k += 1
    }
    cov += pref(curEnd) - pref(curStart)
    cov
  }

  /** Deduplicated candidate records of a line window scan: all contiguous
    * line ranges of span 1..L; `posTextId` maps each boundary pair to its
    * text.
    */
  final class CandidateIndex(
      val texts: Array[String],
      enumChars: Vector[Char],
      val totalChars: Long,
      /** textId at (line * maxSpan + span - 1), or -1 when out of range. */
      val posTextId: Array[Int],
      /** prefix sums of line lengths (+1 for '\n'), length nLines+1. */
      val linePrefix: Array[Long],
      val nLines: Int,
      val maxSpan: Int
  ) {
    // Bit positions only for characters the search will ever enumerate
    // (bounded by maxExhaustiveChars/MaxGreedyChars, far below 64).
    private val charToBit: Map[Char, Int] = enumChars.zipWithIndex.toMap
    val specialMask: Array[Long] = texts.map { t =>
      var m = 0L
      var i = 0
      while (i < t.length) {
        charToBit.get(t.charAt(i)).foreach(b => m |= (1L << b))
        i += 1
      }
      m
    }
    def maskOf(cs: Set[Char]): Long =
      cs.foldLeft(0L)((m, c) => charToBit.get(c).fold(m)(b => m | (1L << b)))
    def charsOf(mask: Long): Set[Char] =
      charToBit.collect { case (c, b) if (mask & (1L << b)) != 0 => c }.toSet
  }

  /** Build the candidate index for `lines` (the paper's step 2: all O(nL)
    * pairs of end-of-line characters at distance <= L). Candidates are
    * deduplicated by text; `enumChars` is the universe of characters the
    * charset search will enumerate.
    */
  def buildCandidates(
      lines: IndexedSeq[String],
      p: DmParams,
      enumChars: Vector[Char]
  ): CandidateIndex = {
    val n = lines.length
    val L = p.maxSpan
    val byText = mutable.HashMap.empty[String, Int]
    val texts = mutable.ArrayBuffer.empty[String]
    val posTextId = Array.fill(n * L)(-1)
    var i = 0
    while (i < n) {
      var span = 1
      val sb = new StringBuilder
      while (span <= L && i + span <= n) {
        sb.append(lines(i + span - 1)).append('\n')
        val text = sb.toString
        if (text.length <= 8192) {
          posTextId(i * L + span - 1) = byText.getOrElseUpdate(text, {
            texts += text; texts.length - 1
          })
        }
        span += 1
      }
      i += 1
    }
    val pref = new Array[Long](n + 1)
    i = 0
    while (i < n) { pref(i + 1) = pref(i) + lines(i).length + 1; i += 1 }
    new CandidateIndex(
      texts.toArray, enumChars, pref(n), posTextId, pref, n, L)
  }

  /** Exhaustive RT-CharSet search: enumerate all subsets of the (at most
    * `maxExhaustiveChars`) most frequent special characters in the sample.
    * Returns the union of all GenST results, deduplicated by canonical
    * template keeping the maximum-coverage bin.
    */
  def exhaustiveSearch(lines: IndexedSeq[String], p: DmParams): Vector[TemplateStat] = {
    val chars = Chars.specialsByFrequency(lines.mkString("\n"))
      .take(p.maxExhaustiveChars)
    val cand = buildCandidates(lines, p, chars)
    val memo = new GenMemo
    val all = Vector.newBuilder[TemplateStat]
    val nSubsets = 1 << chars.length
    var s = 0
    while (s < nSubsets) {
      val cs = chars.zipWithIndex.collect { case (c, b) if (s & (1 << b)) != 0 => c }.toSet
      all ++= genST(lines, cs, p, memo, cand)
      s += 1
    }
    dedupe(all.result())
  }

  /** Greedy RT-CharSet search (paper §9.1): grow the charset one character
    * at a time, choosing the addition whose GenST result contains the
    * highest-assimilation template; accumulate templates from every subset
    * tried along the way.
    */
  def greedySearch(lines: IndexedSeq[String], p: DmParams): Vector[TemplateStat] = {
    val chars = Chars.specialsByFrequency(lines.mkString("\n"))
      .take(MaxGreedyChars)
    val cand = buildCandidates(lines, p, chars)
    val memo = new GenMemo
    val pool = Vector.newBuilder[TemplateStat]
    // the empty charset (fields split only by '\n') is a legitimate subset
    pool ++= genST(lines, Set.empty, p, memo, cand)
    var cs = Set.empty[Char]
    var improved = true
    while (improved && cs.size < chars.length) {
      improved = false
      var bestChar: Option[Char] = None
      var bestScore = -1.0
      for (c <- chars if !cs.contains(c)) {
        val stats = genST(lines, cs + c, p, memo, cand)
        pool ++= stats
        if (stats.nonEmpty) {
          val s = stats.iterator.map(_.assimilation).max
          if (s > bestScore) { bestScore = s; bestChar = Some(c) }
        }
      }
      bestChar match {
        case Some(c) => cs = cs + c; improved = true
        case None    => ()
      }
    }
    dedupe(pool.result())
  }

  /** Keep one stat per canonical template (maximum coverage wins). */
  def dedupe(stats: Vector[TemplateStat]): Vector[TemplateStat] =
    stats
      .groupBy(_.template.canonical)
      .valuesIterator
      .map(_.maxBy(_.coverage))
      .toVector

  /** Pruning step (paper §4.2): order by assimilation score, keep top M.
    * Ties (e.g. a template and its k-fold self-concatenation under unique
    * coverage) break toward the shorter template.
    */
  def prune(stats: Vector[TemplateStat], p: DmParams): Vector[TemplateStat] =
    stats
      .sortBy(s => (-s.assimilation, s.template.canonical.length, s.template.canonical))
      .take(p.topM)
}
