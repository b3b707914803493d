package repro.exp

import repro.core._
import repro.baseline.RecordBreaker
import repro.eval.Criteria
import repro.loggen._

/** Experiment runners behind the bench suites and spark-submit jobs.
  * Each returns plain row case-classes; `Tables.render` pretty-prints.
  */
object Experiments {

  /** Default parameters of §5: alpha=10%, L=10, M=50. The sample bound is
    * reduced from the paper's multi-MB chunks to keep the 100-dataset bench
    * within minutes; datasets here are O(100KB), so most are fully scanned.
    */
  def defaults(exhaustive: Boolean): DmParams =
    DmParams(exhaustive = exhaustive, sampleMaxChars = 60000, genSampleMaxChars = 24000)

  // ------------------------------------------------------------- accuracy

  final case class DatasetOutcome(
      id: String,
      label: Label,
      dmExhaustive: Boolean,
      dmGreedy: Boolean,
      rb: Boolean,
      dmTypesFound: Int,
      sizeChars: Long,
      searchMsExh: Long,
      extractMsExh: Long,
      structuralComplexity: Int,
      dmExhReasons: List[String],
      rbReasons: List[String]
  )

  def judgeDatamaran(gt: GtDataset, p: DmParams): (Criteria.Judgement, Inference, StepTimings) = {
    val (inf, recs) = Datamaran.run(gt.lines, p)
    val j = Criteria.judge(gt, Criteria.fromDatamaran(recs))
    (j, inf, inf.timings)
  }

  def judgeRecordBreaker(gt: GtDataset): Criteria.Judgement = {
    val res = RecordBreaker.run(gt.lines)
    Criteria.judge(gt, Criteria.fromRecordBreaker(res, gt.lines))
  }

  /** Number of structure templates with >= alpha coverage — the paper's
    * "structural complexity" x-axis of Fig 14b (computed on the search
    * sample, exhaustive enumeration).
    */
  def structuralComplexity(gt: GtDataset, p: DmParams): Int = {
    val sample = Generation.sampleLines(gt.lines, p)
    Generation.exhaustiveSearch(sample, p).length
  }

  def runAccuracy(specs: Vector[DatasetSpec], withComplexity: Boolean = false): Vector[DatasetOutcome] = {
    import scala.concurrent.{Await, ExecutionContext, Future}
    import scala.concurrent.duration.Duration
    val pool = java.util.concurrent.Executors.newFixedThreadPool(
      math.max(2, Runtime.getRuntime.availableProcessors() - 2))
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try {
      val futures = specs.map { spec =>
        Future {
          val gt = LogSynth.generate(spec)
          val (jE, infE, tE) = judgeDatamaran(gt, defaults(exhaustive = true))
          val (jG, _, _) = judgeDatamaran(gt, defaults(exhaustive = false))
          val jR = judgeRecordBreaker(gt)
          val cx = if (withComplexity) structuralComplexity(gt, defaults(true)) else -1
          DatasetOutcome(
            spec.id, spec.label,
            jE.success, jG.success, jR.success,
            infE.types.length, gt.sizeChars,
            tE.searchMs, tE.extractionMs, cx,
            jE.reasons, jR.reasons
          )
        }
      }
      Await.result(Future.sequence(futures), Duration.Inf)
    } finally pool.shutdown()
  }

  final case class CategoryAccuracy(
      category: String,
      n: Int,
      dmExhaustive: Double,
      dmGreedy: Double,
      rb: Double
  )

  /** Per-category accuracy over structured labels (NS excluded, as in the
    * paper's 95.5% figure); the last row is the overall accuracy.
    */
  def byCategory(outcomes: Vector[DatasetOutcome]): Vector[CategoryAccuracy] = {
    val structured = outcomes.filter(_.label != Label.NS)
    def pct(xs: Vector[DatasetOutcome], f: DatasetOutcome => Boolean): Double =
      if (xs.isEmpty) 0.0 else 100.0 * xs.count(f) / xs.length
    val per = Vector(Label.SNI, Label.SI, Label.MNI, Label.MI).map { l =>
      val xs = structured.filter(_.label == l)
      CategoryAccuracy(l.show, xs.length, pct(xs, _.dmExhaustive), pct(xs, _.dmGreedy), pct(xs, _.rb))
    }
    per :+ CategoryAccuracy("overall", structured.length,
      pct(structured, _.dmExhaustive), pct(structured, _.dmGreedy), pct(structured, _.rb))
  }

  // ------------------------------------------------------- runtime vs size

  final case class SizeTiming(
      sizeMB: Double,
      greedySearchMs: Long,
      exhaustiveSearchMs: Long,
      localExtractMs: Long,
      sparkExtractMs: Long
  )

  /** Fig 14a: one schema, growing sizes; search vs extraction split, with
    * extraction also run distributed. `spark` may be null to skip the
    * distributed column (e.g. in unit contexts).
    */
  def runtimeVsSize(
      sizesMB: Vector[Double],
      spark: org.apache.spark.sql.SparkSession
  ): Vector[SizeTiming] =
    sizesMB.map { mb =>
      val r = new scala.util.Random(7)
      val t = Corpus.multiType(r, 3, "sz")
      val approxBlock = 130.0 // chars per record, roughly
      val nBlocks = math.max(50, (mb * 1e6 / approxBlock).toInt)
      val spec = DatasetSpec(f"size-$mb%.1f", Label.MNI, Vector(t -> 1.0), nBlocks,
        NoiseSpec.some(0.03), 42L + (mb * 10).toLong)
      val gt = LogSynth.generate(spec)
      val pG = DmParams(exhaustive = false)
      val pE = DmParams(exhaustive = true)
      val infG = Datamaran.infer(gt.lines, pG)
      val infE = Datamaran.infer(gt.lines, pE)
      val t0 = System.nanoTime()
      val recs = Datamaran.extract(gt.lines, infE.types.map(_.template), pE.maxSpan)
      val localMs = (System.nanoTime() - t0) / 1000000L
      require(recs.nonEmpty, s"no records extracted at size $mb MB")
      val sparkMs = if (spark == null) -1L else {
        val rdd = spark.sparkContext.parallelize(gt.lines, 16)
        val t1 = System.nanoTime()
        val ex = SparkExtract.extract(spark, rdd, infE.types.map(_.template), pE.maxSpan)
        ex.records.count() // force
        ex.tables.foreach(_.df.count())
        val ms = (System.nanoTime() - t1) / 1000000L
        ex.release()
        ms
      }
      SizeTiming(mb, infG.timings.searchMs, infE.timings.searchMs, localMs, sparkMs)
    }

  // ---------------------------------------------------- parameter sweeps

  final case class ParamPoint(
      param: String,
      value: String,
      avgSearchMs: Double,
      optimalFoundPct: Double
  )

  /** Reference "optimal" template per dataset: the best MDL among ALL
    * generated candidates with >= alpha coverage (i.e. M = infinity), as in
    * §5.2.3's metric.
    */
  def optimalTemplate(gt: GtDataset, alpha: Double, maxSpan: Int): Option[String] = {
    val p = defaults(true).copy(alpha = alpha, maxSpan = maxSpan, topM = Int.MaxValue)
    val sample = Generation.sampleLines(gt.lines, p)
    val genSample = Generation.sampleLines(
      gt.lines, p.copy(sampleMaxChars = math.min(p.genSampleMaxChars, p.sampleMaxChars)))
    val stats = Generation.dedupe(
      Generation.exhaustiveSearch(genSample, p)
        .map(s => s.copy(template = Refine.periodReduce(s.template))))
    if (stats.isEmpty) return None
    val top = Generation.prune(stats, p) // M = infinity: order only
    Datamaran.evaluateBest(top, sample, p, Mdl.noiseBaseline(sample)).map(_._1.canonical)
  }

  def paramSweep(specs: Vector[DatasetSpec]): Vector[ParamPoint] = {
    val gts = specs.map(LogSynth.generate)
    val reference = gts.map(gt => optimalTemplate(gt, 0.10, 10))

    def point(param: String, value: String, p: DmParams): ParamPoint = {
      var totalMs = 0L
      var found = 0
      for ((gt, ref) <- gts.zip(reference)) {
        val inf = Datamaran.infer(gt.lines, p)
        totalMs += inf.timings.searchMs
        val hit = ref match {
          case None    => inf.types.isEmpty
          case Some(c) => inf.types.headOption.exists(_.template.canonical == c)
        }
        if (hit) found += 1
      }
      ParamPoint(param, value, totalMs.toDouble / gts.length, 100.0 * found / gts.length)
    }

    val base = defaults(true)
    Vector(
      point("M", "10", base.copy(topM = 10)),
      point("M", "50", base.copy(topM = 50)),
      point("M", "200", base.copy(topM = 200)),
      point("M", "1000", base.copy(topM = 1000)),
      point("alpha", "5%", base.copy(alpha = 0.05)),
      point("alpha", "10%", base.copy(alpha = 0.10)),
      point("alpha", "20%", base.copy(alpha = 0.20)),
      point("L", "5", base.copy(maxSpan = 5)),
      point("L", "10", base.copy(maxSpan = 10)),
      point("L", "15", base.copy(maxSpan = 15))
    )
  }

  // ------------------------------------------------- step complexity (T3)

  final case class StepTimingRow(
      variable: String,
      value: String,
      generationMs: Long,
      pruningMs: Long,
      evaluationMs: Long,
      extractionMs: Long,
      candidatesK: Int
  )

  def stepComplexity(): Vector[StepTimingRow] = {
    val r = new scala.util.Random(11)
    val t = Corpus.multiType(r, 3, "cx")
    def mkGt(nBlocks: Int, seed: Long) = LogSynth.generate(
      DatasetSpec(s"cx-$nBlocks", Label.MNI, Vector(t -> 1.0), nBlocks, NoiseSpec.some(0.05), seed))

    val rows = Vector.newBuilder[StepTimingRow]
    def full(n: Int) = DmParams(exhaustive = true,
      sampleMaxChars = Int.MaxValue, genSampleMaxChars = Int.MaxValue).copy(topM = 50)

    // one untimed pass first, so JIT compilation is not charged to the
    // first sweep point
    Datamaran.run(mkGt(200, 59L).lines, full(200))
    // S_data sweep (generation is linear in scanned chars)
    for (n <- Vector(200, 400, 800, 1600)) {
      val gt = mkGt(n, 60L + n)
      val (inf, _) = Datamaran.run(gt.lines, full(n))
      rows += StepTimingRow("S_data(blocks)", n.toString,
        inf.timings.generationMs, inf.timings.pruningMs,
        inf.timings.evaluationMs, inf.timings.extractionMs, inf.candidatesAfterGeneration)
    }
    // c sweep (exhaustive generation is O(2^c))
    val gtC = mkGt(600, 77L)
    for (c <- Vector(2, 4, 6, 7)) {
      val inf = Datamaran.infer(gtC.lines, full(600).copy(maxExhaustiveChars = c))
      rows += StepTimingRow("c(chars)", c.toString,
        inf.timings.generationMs, inf.timings.pruningMs,
        inf.timings.evaluationMs, 0, inf.candidatesAfterGeneration)
    }
    // L sweep (generation is linear in L)
    for (l <- Vector(3, 5, 10, 12)) {
      val inf = Datamaran.infer(gtC.lines, full(600).copy(maxSpan = l))
      rows += StepTimingRow("L(lines)", l.toString,
        inf.timings.generationMs, inf.timings.pruningMs,
        inf.timings.evaluationMs, 0, inf.candidatesAfterGeneration)
    }
    // M sweep (evaluation is linear in M)
    for (m <- Vector(10, 50, 200, 400)) {
      val inf = Datamaran.infer(gtC.lines, full(600).copy(topM = m))
      rows += StepTimingRow("M(templates)", m.toString,
        inf.timings.generationMs, inf.timings.pruningMs,
        inf.timings.evaluationMs, 0, inf.candidatesAfterGeneration)
    }
    rows.result()
  }

  // -------------------------------------------------- assumption chart T1

  final case class AssumptionRow(
      assumption: String,
      probe: String,
      rbNeedsIt: Boolean,
      dmNeedsIt: Boolean
  )

  /** Behavioural Table 1: for each assumption, a probe dataset that
    * violates it; a system "needs" the assumption iff it fails the probe
    * while succeeding on the control dataset satisfying all assumptions.
    */
  def assumptionChart(): (Vector[AssumptionRow], Boolean, Boolean) = {
    val r = new scala.util.Random(5)

    def dmOk(gt: GtDataset) = judgeDatamaran(gt, defaults(true))._1.success
    def rbOk(gt: GtDataset) = judgeRecordBreaker(gt).success

    // control: single-line, clean, fixed tokenization-friendly
    val control = LogSynth.generate(
      DatasetSpec("ctrl", Label.SNI, Vector(Corpus.kvType(r) -> 1.0), 600, NoiseSpec.none, 1))
    val dmCtrl = dmOk(control); val rbCtrl = rbOk(control)

    // Boundary probe: multi-line records (Assumption 4 violated)
    val boundary = LogSynth.generate(
      DatasetSpec("bnd", Label.MNI, Vector(Corpus.crashType(r) -> 1.0), 400, NoiseSpec.none, 2))
    // Tokenization probe: variable dashed ids (Assumption 5 violated)
    val tokenization = LogSynth.generate(
      DatasetSpec("tok", Label.SNI, Vector(Corpus.dashedType(r) -> 1.0), 600, NoiseSpec.none, 3))
    // Coverage probe: a structured type at ~5% coverage amid noise —
    // DATAMARAN (alpha=10%) must NOT report it; this is the assumption
    // DATAMARAN adds.
    val lowCov = LogSynth.generate(
      DatasetSpec("cov", Label.NS, Vector(Corpus.kvType(r) -> 1.0), 1400, NoiseSpec(0.975, NoiseSpec.messy), 4))
    val dmLowCov = {
      val (inf, recs) = Datamaran.run(lowCov.lines, defaults(true))
      recs.nonEmpty && inf.types.nonEmpty
    }

    val rows = Vector(
      AssumptionRow("Coverage Threshold", "type at ~5% coverage", rbNeedsIt = false, dmNeedsIt = !dmLowCov),
      AssumptionRow("Non-overlapping", "(made by both, §3.2)", rbNeedsIt = true, dmNeedsIt = true),
      AssumptionRow("Structural Form", "(made by both, §3.3)", rbNeedsIt = true, dmNeedsIt = true),
      AssumptionRow("Boundary", "multi-line records", rbNeedsIt = !rbOk(boundary), dmNeedsIt = !dmOk(boundary)),
      AssumptionRow("Tokenization", "variable dashed ids", rbNeedsIt = !rbOk(tokenization), dmNeedsIt = !dmOk(tokenization))
    )
    (rows, dmCtrl, rbCtrl)
  }
}
