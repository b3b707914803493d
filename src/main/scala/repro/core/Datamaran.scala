package repro.core

/** Wall-clock of the three DATAMARAN steps plus extraction (paper Table 3),
  * accumulated in nanoseconds across interleaved-type iterations. The
  * millisecond accessors round down once, over the sum, so steps shorter
  * than a millisecond still add up.
  */
final case class StepTimings(
    generationNs: Long,
    pruningNs: Long,
    evaluationNs: Long,
    extractionNs: Long
) {
  def +(o: StepTimings): StepTimings = StepTimings(
    generationNs + o.generationNs,
    pruningNs + o.pruningNs,
    evaluationNs + o.evaluationNs,
    extractionNs + o.extractionNs
  )
  def generationMs: Long = generationNs / StepTimings.NsPerMs
  def pruningMs: Long = pruningNs / StepTimings.NsPerMs
  def evaluationMs: Long = evaluationNs / StepTimings.NsPerMs
  def extractionMs: Long = extractionNs / StepTimings.NsPerMs
  def searchMs: Long = (generationNs + pruningNs + evaluationNs) / StepTimings.NsPerMs
}
object StepTimings {
  val zero: StepTimings = StepTimings(0, 0, 0, 0)
  private val NsPerMs = 1000000L
}

/** One accepted record type. */
final case class InferredType(template: Template, mdlScore: Double, sampleCoverage: Double)

/** Result of the structure search (no full-data extraction yet). */
final case class Inference(
    types: Vector[InferredType],
    timings: StepTimings,
    candidatesAfterGeneration: Int, // the paper's K (on the last iteration)
    sampleLineCount: Int
)

/** One record of the greedy cover: template index (priority order), first
  * line, line span, and its table rows and top-level items.
  */
final case class RecordInstance(typeIdx: Int, start: Int, span: Int, parsed: Parsed)

/** The DATAMARAN algorithm (paper §4): Generation -> Pruning -> Evaluation,
  * iterated over the residual for interleaved record types (§9.1), followed
  * by one LL(1) extraction pass, the greedy [[Datamaran.Cover]] (run over
  * all lines by [[Datamaran.extract]], per partition by [[SparkExtract]]).
  */
object Datamaran {

  /** Cap on search iterations, i.e. on interleaved record types (§9.1). */
  val MaxRecordTypes = 8

  /** Near-tie band for final selection, relative to the DL savings. */
  val MdlTieBand = 0.02

  /** Required DL savings of an accepted template vs the all-noise encoding. */
  val MinSavings = 0.01

  private def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = f
    (r, System.nanoTime() - t0)
  }

  /** Structure search over (a sample of) `lines`. */
  def infer(lines: IndexedSeq[String], p: DmParams = DmParams()): Inference = {
    val sample = Generation.sampleLines(lines, p)
    var residual = sample
    val accepted = Vector.newBuilder[InferredType]
    val acceptedCanon = scala.collection.mutable.Set.empty[String]
    var timings = StepTimings.zero
    var lastK = 0
    val sampleTotalChars = sample.iterator.map(_.length + 1L).sum

    var iter = 0
    var done = false
    while (!done && iter < MaxRecordTypes) {
      iter += 1
      // ---- Generation ----
      // generation runs on a (possibly smaller) chunk subsample of the
      // evaluation sample
      val (stats, genNs) = timed {
        val genLines = Generation.generationSample(residual, p)
        if (p.exhaustive) Generation.exhaustiveSearch(genLines, p)
        else Generation.greedySearch(genLines, p)
      }
      lastK = stats.length
      // genST already enforced the alpha threshold relative to the scanned
      // sample (Assumption 1); only exclude already-accepted templates here
      val fresh = stats.filterNot(s => acceptedCanon.contains(s.template.canonical))
      if (fresh.isEmpty) {
        timings += StepTimings(genNs, 0, 0, 0)
        done = true
      } else {
        // ---- Pruning ----
        // canonicalize k-fold self-concatenations to their period first:
        // stacks tie with the true template under unique coverage and would
        // otherwise crowd out the top-M and waste evaluation time
        val (top, pruneNs) = timed {
          val collapsed = Generation.dedupe(
            fresh.map(s => s.copy(template = Refine.periodReduce(s.template))))
          Generation.prune(collapsed, p)
        }
        // ---- Evaluation ----
        val ((best, noiseDl), evalNs) = timed {
          val noiseDl = Mdl.noiseBaseline(residual)
          (evaluateBest(top, residual, p, noiseDl), noiseDl)
        }
        timings += StepTimings(genNs, pruneNs, evalNs, 0)

        best match {
          case Some((t, sc, score))
              if score < noiseDl * (1 - MinSavings) &&
                sc.anchoredChars >= p.alpha * sampleTotalChars &&
                !acceptedCanon.contains(t.canonical) =>
            accepted += InferredType(t, score, sc.recordChars.toDouble / sampleTotalChars)
            acceptedCanon += t.canonical
            // residual: the lines of the sample this type's scan left as noise
            residual = sc.noiseLines.map(residual)
            if (residual.isEmpty) done = true
          case _ =>
            done = true
        }
      }
    }
    Inference(accepted.result(), timings, lastK, sample.length)
  }

  /** Evaluation step over pruned candidates (in priority order): refine
    * each (with the coverage guard and a can't-win shortcut against the
    * best score so far), then select by near-tie rules: candidates whose
    * description-length SAVINGS over the all-noise baseline are within the
    * tie band of the best are considered equal; ties prefer more records
    * (rejects k-fold self-concatenations), then earliest first occurrence
    * (structure shifting), then score, then the shorter template. The band
    * is relative to the savings, not total DL, so noise-dominated datasets
    * do not drown the signal.
    */
  def evaluateBest(
      top: Vector[TemplateStat],
      lines: IndexedSeq[String],
      p: DmParams,
      noiseDl: Double
  ): Option[(Template, Mdl.ParseScan, Double)] = {
    var bestSoFar = Double.MaxValue
    val evaluated = top.flatMap { s =>
      val (t, sc, score) =
        Refine.refine(s.template, lines, p.maxSpan, p.alpha, bestSoFar * 1.6)
      if (score < bestSoFar) bestSoFar = score
      if (sc.recordCount == 0) None
      else Some((t, sc, score))
    }
    if (evaluated.isEmpty) None
    else {
      val minScore = evaluated.map(_._3).min
      val cut = minScore + MdlTieBand * math.max(1.0, noiseDl - minScore)
      val band = evaluated.filter(_._3 <= cut)
      Some(band.minBy { case (t, sc, score) =>
        (-sc.recordCount, sc.firstStart, score, t.encodedLength)
      })
    }
  }

  /** The greedy record cover, the only code that places records: final
    * extraction ([[extract]]), MDL evaluation ([[Mdl.scan]] runs it with a
    * single template) and each partition of [[SparkExtract.extract]] run it.
    * Entered at line `from`, it scans left to right; at each line the
    * templates are tried in priority order (the first iteration's type
    * first), each by the one LL(1) parse that fixes its span
    * ([[ParseProgram.parse]]: the template form is LL(1) and '\n' is always
    * a formatting character, so a record starting at a line has at most one
    * parse); unmatched lines are noise.
    * It places records only at lines before `until` (a record may run past
    * it) and ends at the first line at or past `until` that it reaches.
    * [[advance]] places one record at a time and leaves its parse in
    * [[parse]]; once the cover is exhausted, `exit` is the line where it
    * ended. Its path from a line depends only on that line, so two covers
    * that place a record at one line are one from there on (the join rule
    * of [[SparkExtract]]'s exit tables).
    */
  final class Cover(
      lines: IndexedSeq[String],
      templates: Vector[Template],
      maxSpan: Int,
      from: Int,
      until: Int
  ) {
    private val programs = templates.map(_.program).toArray
    private var i = from

    /** The parse of the last placed record. */
    val parse = new ParseBuffer
    /** Template index, first line and line span of the last placed record. */
    var typeIdx: Int = -1
    var start: Int = -1
    var span: Int = 0

    /** Place the next record; false once the cover is exhausted. */
    def advance(): Boolean = {
      while (i < until) {
        var tid = 0
        while (tid < programs.length) {
          val s = programs(tid).parse(lines, i, maxSpan, parse)
          if (s > 0) {
            typeIdx = tid; start = i; span = s
            i += s
            return true
          }
          tid += 1
        }
        i += 1
      }
      false
    }

    def exit: Int = i

    /** The remaining records with their rows and top-level items. */
    def records: Iterator[RecordInstance] =
      Iterator.continually(advance()).takeWhile(identity).map { _ =>
        RecordInstance(typeIdx, start, span, programs(typeIdx).parsed(lines, parse))
      }
  }

  /** The greedy cover of all of `lines`. */
  def extract(
      lines: IndexedSeq[String],
      templates: Vector[Template],
      maxSpan: Int
  ): Vector[RecordInstance] =
    new Cover(lines, templates, maxSpan, 0, lines.length).records.toVector

  /** Convenience: full pipeline on in-memory lines, timing extraction too. */
  def run(lines: IndexedSeq[String], p: DmParams = DmParams()): (Inference, Vector[RecordInstance]) = {
    val inf = infer(lines, p)
    val (recs, exNs) = timed(extract(lines, inf.types.map(_.template), p.maxSpan))
    (inf.copy(timings = inf.timings + StepTimings(0, 0, 0, exNs)), recs)
  }
}
