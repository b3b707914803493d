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
    nonFieldCoverage: Long
) {
  /** Assimilation score G(T,S) = Cov × Non_Field_Cov (paper §4.2). */
  def assimilation: Double = coverage.toDouble * nonFieldCoverage.toDouble
}

/** Parameters of the structure search (paper Table 2 + §9.1). The defaults
  * are §5's alpha=10%, L=10, M=50. The sample bounds are reduced from the
  * paper's multi-MB chunks so that the 125-dataset benches run within
  * minutes; 73 of the 125 corpus datasets fit the evaluation bound whole.
  */
final case class DmParams(
    alpha: Double = 0.10,          // minimum coverage threshold (fraction)
    maxSpan: Int = 10,             // L: maximum lines per record
    topM: Int = 50,                // M: templates kept after pruning
    exhaustive: Boolean = true,    // exhaustive vs greedy RT-CharSet search
    maxExhaustiveChars: Int = 7,   // cap on c for the 2^c enumeration
    sampleMaxChars: Int = 60_000,  // S_data bound for evaluation (§9.1)
    genSampleMaxChars: Int = 24_000 // S_data bound for generation (§9.1)
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

  /** The generation step's subsample of `lines`: [[sampleLines]] under the
    * generation bound, or the evaluation bound where that is tighter (the
    * paper's S_data bound applies to both steps, §9.1).
    */
  def generationSample(lines: IndexedSeq[String], p: DmParams): IndexedSeq[String] =
    sampleLines(lines, p.copy(sampleMaxChars = math.min(p.genSampleMaxChars, p.sampleMaxChars)))

  /** Longest candidate record text (characters, '\n' included) considered. */
  private val MaxCandidateChars = 8192

  /** The generation sample's per-line tables, shared by every charset one
    * search enumerates.
    *
    *  - `enumChars`: the `maxChars` most frequent special characters of the
    *    sample (the paper's c); bit b of a charset mask stands for
    *    `enumChars(b)`.
    *  - Per distinct line text: its mask of enumerated characters, and a
    *    table over its effective charsets (line mask ∩ enumerated subset)
    *    of the interned id and literal-character count of its minimal
    *    template, filled on first use. Each line's table is sized by its
    *    own enumerated characters, not by 2^c.
    */
  final class LineIndex(lines: IndexedSeq[String], val maxSpan: Int, maxChars: Int) {
    val enumChars: Vector[Char] = Chars.specialsByFrequency(lines).take(maxChars)
    val nLines: Int = lines.length

    /** Prefix sums of line lengths (+1 for '\n'), length nLines+1. */
    val linePrefix: Array[Long] = {
      val pref = new Array[Long](nLines + 1)
      var i = 0
      while (i < nLines) { pref(i + 1) = pref(i) + lines(i).length + 1; i += 1 }
      pref
    }
    def totalChars: Long = linePrefix(nLines)

    private[Generation] val templates = new TemplateOps.LineTemplates

    private val bitOf: Array[Int] = {
      val a = Array.fill(128)(-1)
      enumChars.zipWithIndex.foreach { case (c, b) => a(c.toInt) = b }
      a
    }
    private def bit(ch: Char): Int = if (ch < 128) bitOf(ch.toInt) else -1

    // identical lines share one row of the tables
    private val (rowOf: Array[Int], rowText: Array[String]) = {
      val byText = mutable.HashMap.empty[String, Int]
      val texts = mutable.ArrayBuffer.empty[String]
      val rows = lines.iterator.map(l => byText.getOrElseUpdate(l, { texts += l; texts.length - 1 })).toArray
      (rows, texts.toArray)
    }
    private val rowMask: Array[Int] = rowText.map { t =>
      var m = 0
      var i = 0
      while (i < t.length) { val b = bit(t.charAt(i)); if (b >= 0) m |= 1 << b; i += 1 }
      m
    }
    private val rowTable = new Array[Array[Long]](rowText.length)

    private[Generation] val trie = new Trie(linePrefix)

    /** Packed line template ([[TemplateOps.LineTemplates.reduceLine]]) of
      * every line under charset mask `cs`.
      */
    private[Generation] def lineTemplates(cs: Int): Array[Long] = {
      val perRow = new Array[Long](rowText.length)
      var r = 0
      while (r < rowText.length) {
        val m = rowMask(r)
        val eff = cs & m
        if (rowTable(r) == null) rowTable(r) = Array.fill(1 << Integer.bitCount(m))(-1L)
        // eff's position among the subsets of m: its bits compressed onto m's
        var slot = 0
        var k = 0
        var rest = m
        while (rest != 0) {
          val low = rest & -rest
          if ((eff & low) != 0) slot |= 1 << k
          k += 1
          rest &= rest - 1
        }
        val table = rowTable(r)
        if (table(slot) < 0)
          table(slot) = templates.reduceLine(rowText(r), ch => bit(ch) >= 0 && (eff & (1 << bit(ch))) != 0)
        perRow(r) = table(slot)
        r += 1
      }
      rowOf.map(r => perRow(r))
    }
  }

  /** The paper's GenST(char_set): enumerate all candidate records (pairs of
    * line boundaries at most L lines apart), reduce each, and accumulate
    * per-template coverage in a hash table; keep bins with at least alpha%
    * coverage of the scanned text.
    *
    * A candidate's template is the concatenation of its lines' templates,
    * so each start line's spans 1..L extend one path of a trie over
    * line-template ids; bins are keyed by trie node, and each merges its
    * unique coverage interval by interval as the scan goes. A template is
    * built, from its path's line items, only for the bins that pass the
    * alpha cut.
    */
  def genST(index: LineIndex, cs: Int, p: DmParams): Vector[TemplateStat] = {
    val t = index.templates
    val packed = index.lineTemplates(cs)
    val lineId = packed.map(TemplateOps.LineTemplates.id)
    val lineLiteral = packed.map(TemplateOps.LineTemplates.literalChars)
    val lineItems = lineId.map(t.items(_).length)
    val lineField = lineId.map(t.hasField)
    val n = index.nLines
    val pref = index.linePrefix
    val trie = index.trie
    trie.reset()
    var i = 0
    while (i < n) {
      var node = -1
      var items = 0
      var hasField = false
      var lit = 0L
      var span = 1
      var more = true
      while (more && span <= index.maxSpan && i + span <= n) {
        val j = i + span - 1
        val len = pref(i + span) - pref(i)
        items += lineItems(j)
        if (len > MaxCandidateChars || items > TemplateOps.MaxTemplateItems) more = false
        else {
          hasField ||= lineField(j)
          lit += lineLiteral(j)
          node = trie.child(node, lineId(j))
          if (hasField) trie.add(node, len, lit, i, i + span)
          span += 1
        }
      }
      i += 1
    }
    val thresh = p.alpha * index.totalChars
    val out = Vector.newBuilder[TemplateStat]
    var node = 0
    while (node < trie.size) {
      if (trie.sumCov(node) > 0) {
        val cov = trie.uniqueCoverage(node)
        if (cov >= thresh) {
          val nfFrac = trie.sumNf(node).toDouble / trie.sumCov(node)
          val items = trie.path(node).iterator.flatMap(t.items).toVector
          out += TemplateStat(Template(items), cov, math.round(cov * nfFrac))
        }
      }
      node += 1
    }
    out.result()
  }

  /** Trie over line-template ids: one node per distinct candidate template
    * of one charset, each holding its template's hash bin. One trie serves
    * every charset of a search ([[reset]]) and grows on demand.
    */
  private final class Trie(pref: Array[Long]) {
    var size = 0
    var parent = new Array[Int](64)
    var lineId = new Array[Int](64)
    // a bin's candidate characters; 0 exactly while it is empty, as each holds a '\n'
    var sumCov = new Array[Long](64)
    var sumNf = new Array[Long](64)
    // unique coverage: closed line intervals summed in cov, the open one in runStart/runEnd
    var cov = new Array[Long](64)
    var runStart = new Array[Int](64)
    var runEnd = new Array[Int](64)
    // open addressing from (parent, lineId) to node, -1 when empty
    private var slots = Array.fill(128)(-1)

    def reset(): Unit = { size = 0; java.util.Arrays.fill(slots, -1) }

    def child(node: Int, id: Int): Int = {
      if (size == parent.length) grow()
      var h = slot(node, id)
      while (slots(h) >= 0) {
        val k = slots(h)
        if (parent(k) == node && lineId(k) == id) return k
        h = (h + 1) & (slots.length - 1)
      }
      val k = size
      slots(h) = k
      parent(k) = node; lineId(k) = id
      sumCov(k) = 0; sumNf(k) = 0; cov(k) = 0
      size += 1
      k
    }

    /** Bin the candidate of lines [start, end) at `node`. A node's
      * candidates all span its depth and arrive in ascending start order,
      * so each one extends the open interval or closes it and opens the next.
      */
    def add(node: Int, chars: Long, literal: Long, start: Int, end: Int): Unit = {
      if (sumCov(node) == 0) runStart(node) = start
      else if (start > runEnd(node)) {
        cov(node) += pref(runEnd(node)) - pref(runStart(node))
        runStart(node) = start
      }
      runEnd(node) = end
      sumCov(node) += chars
      sumNf(node) += literal
    }

    /** Characters covered by the union of the node's candidates. */
    def uniqueCoverage(node: Int): Long = cov(node) + pref(runEnd(node)) - pref(runStart(node))

    /** Line-template ids from the root to `node`. */
    def path(node: Int): List[Int] = {
      var ids = List.empty[Int]
      var k = node
      while (k >= 0) { ids = lineId(k) :: ids; k = parent(k) }
      ids
    }

    private def slot(node: Int, id: Int): Int =
      (((((node + 1).toLong << 32) | id) * 0x9E3779B97F4A7C15L) >>> 32).toInt & (slots.length - 1)

    private def grow(): Unit = {
      val cap = 2 * parent.length
      parent = java.util.Arrays.copyOf(parent, cap)
      lineId = java.util.Arrays.copyOf(lineId, cap)
      sumCov = java.util.Arrays.copyOf(sumCov, cap)
      sumNf = java.util.Arrays.copyOf(sumNf, cap)
      cov = java.util.Arrays.copyOf(cov, cap)
      runStart = java.util.Arrays.copyOf(runStart, cap)
      runEnd = java.util.Arrays.copyOf(runEnd, cap)
      slots = Array.fill(2 * cap)(-1)
      var k = 0
      while (k < size) {
        var h = slot(parent(k), lineId(k))
        while (slots(h) >= 0) h = (h + 1) & (slots.length - 1)
        slots(h) = k
        k += 1
      }
    }
  }

  /** Exhaustive RT-CharSet search: enumerate all subsets of the (at most
    * `maxExhaustiveChars`) most frequent special characters in the sample.
    * Returns the union of all GenST results, deduplicated by canonical
    * template keeping the maximum-coverage bin.
    */
  def exhaustiveSearch(lines: IndexedSeq[String], p: DmParams): Vector[TemplateStat] = {
    val index = new LineIndex(lines, p.maxSpan, p.maxExhaustiveChars)
    val all = Vector.newBuilder[TemplateStat]
    var cs = 0
    while (cs < (1 << index.enumChars.length)) {
      all ++= genST(index, cs, p)
      cs += 1
    }
    dedupe(all.result())
  }

  /** Greedy RT-CharSet search (paper §9.1): grow the charset one character
    * at a time, choosing the addition whose GenST result contains the
    * highest-assimilation template; accumulate templates from every subset
    * tried along the way.
    */
  def greedySearch(lines: IndexedSeq[String], p: DmParams): Vector[TemplateStat] = {
    val index = new LineIndex(lines, p.maxSpan, MaxGreedyChars)
    val c = index.enumChars.length
    val pool = Vector.newBuilder[TemplateStat]
    // the empty charset (fields split only by '\n') is a legitimate subset
    pool ++= genST(index, 0, p)
    var cs = 0
    var improved = true
    while (improved && Integer.bitCount(cs) < c) {
      improved = false
      var bestBit = -1
      var bestScore = -1.0
      for (b <- 0 until c if (cs & (1 << b)) == 0) {
        val stats = genST(index, cs | (1 << b), p)
        pool ++= stats
        if (stats.nonEmpty) {
          val s = stats.iterator.map(_.assimilation).max
          if (s > bestScore) { bestScore = s; bestBit = b }
        }
      }
      if (bestBit >= 0) { cs |= 1 << bestBit; improved = true }
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
