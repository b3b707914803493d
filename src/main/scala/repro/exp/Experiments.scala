package repro.exp

import repro.core._
import repro.baseline.RecordBreaker
import repro.eval.Criteria
import repro.loggen._

/** Experiment runners behind the bench suites and spark-submit jobs. Each
  * reproduced table or figure is one function here, which picks its
  * datasets and renders its rows ([[Figure]]): the job prints the text, and
  * the bench suite prints it and asserts on the rows.
  */
object Experiments {

  /** The default parameters. Kept only because perfbench, which changes
    * only with the benchmark, calls it; the next benchmark change calls
    * `DmParams(exhaustive = true)` there and deletes this forward.
    */
  def defaults(exhaustive: Boolean): DmParams = DmParams(exhaustive = exhaustive)

  /** One reproduced table or figure: its rows and their rendering. */
  final case class Figure[A](rows: A, text: String)

  private def ok(b: Boolean): String = if (b) "ok" else "FAIL"

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
      dmExhReasons: List[String]
  )

  /** The §9.3 judgement of DATAMARAN on `gt`, with the inference behind it
    * (its timings include extraction).
    */
  def judgeDatamaran(gt: GtDataset, p: DmParams): (Criteria.Judgement, Inference) = {
    val (inf, recs) = Datamaran.run(gt.lines, p)
    (Criteria.judge(gt, Criteria.fromDatamaran(recs)), inf)
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
          val (jE, infE) = judgeDatamaran(gt, DmParams(exhaustive = true))
          val (jG, _) = judgeDatamaran(gt, DmParams(exhaustive = false))
          val jR = judgeRecordBreaker(gt)
          val cx = if (withComplexity) structuralComplexity(gt, DmParams()) else -1
          DatasetOutcome(
            spec.id, spec.label,
            jE.success, jG.success, jR.success,
            infE.types.length, gt.sizeChars,
            infE.timings.searchMs, infE.timings.extractionMs, cx,
            jE.reasons
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

  /** Table 4 + Fig 17a (label distribution) and Fig 17b + the §5.3.2
    * headline (DATAMARAN 95.5% vs RecordBreaker 29.2%) on the first `n`
    * specs of the synthetic GitHub-analog corpus; one row per category.
    */
  def gitHubAccuracy(n: Int = 100): Figure[Vector[CategoryAccuracy]] = {
    val specs = Corpus.github100.take(n)
    val dist = specs.groupBy(_.label).view.mapValues(_.length).toMap
    val outcomes = runAccuracy(specs)
    val cats = byCategory(outcomes)
    val ns = outcomes.filter(_.label == Label.NS)
    val failures = outcomes.filter(o => o.label != Label.NS && !o.dmExhaustive)
    Figure(cats, (Vector(
      Tables.render("Fig 17a: corpus label distribution (paper: 44/14/13/18/11)",
        Vector("label", "count"),
        Label.all.map(l => Vector(l.show, dist.getOrElse(l, 0).toString))),
      Tables.render(
        "Fig 17b: accuracy by category — paper DM-exh: 100/85.7/92.3/94.4 overall 95.5; " +
          "DM-greedy: 100/78.6/76.9/83.3; RB: 56.8/7.1/0/0 overall 29.2",
        Vector("category", "n", "DM exhaustive", "DM greedy", "RecordBreaker"),
        cats.map(c => Vector(c.category, c.n.toString,
          Tables.pct(c.dmExhaustive), Tables.pct(c.dmGreedy), Tables.pct(c.rb)))),
      s"NS datasets where DATAMARAN correctly reports no structure: ${ns.count(_.dmExhaustive)}/${ns.length}",
      s"DM-exhaustive failures (${failures.length}):"
    ) ++ failures.map(f => s"  ${f.id} [${f.label.show}]: ${f.dmExhReasons.headOption.getOrElse("?")}"))
      .mkString("\n"))
  }

  /** Table 5 (dataset characteristics) + §5.2.1 (25/25 successful
    * extractions) + the Fig 14b structural-complexity column on the 25
    * manual-dataset analogs; one row per dataset.
    */
  def manualDatasets(): Figure[Vector[DatasetOutcome]] = {
    val outcomes = runAccuracy(Corpus.manual25, withComplexity = true)
    val byCx = outcomes.sortBy(_.structuralComplexity).map(_.searchMsExh.toDouble)
    Figure(outcomes, (Vector(
      Tables.render(
        "Table 5 analogs: characteristics, extraction success (paper: 25/25), search/extract time",
        Vector("dataset", "label", "size(MB)", "#types", "cx(>=10%)",
          "DM-exh", "DM-greedy", "RB", "searchMs", "extractMs"),
        outcomes.map(o => Vector(
          o.id, o.label.show, f"${o.sizeChars / 1e6}%.2f", o.dmTypesFound.toString,
          o.structuralComplexity.toString, ok(o.dmExhaustive), ok(o.dmGreedy), ok(o.rb),
          o.searchMsExh.toString, o.extractMsExh.toString))),
      s"DM exhaustive: ${outcomes.count(_.dmExhaustive)}/${outcomes.length} successful (paper: 25/25)"
    ) ++ outcomes.filterNot(_.dmExhaustive).map(o =>
      s"  FAIL ${o.id}: ${o.dmExhReasons.headOption.getOrElse("?")}"
    ) :+ f"search time (Fig 14b): low-complexity avg ${byCx.take(8).sum / 8}%.0f ms, " +
      f"high-complexity avg ${byCx.takeRight(8).sum / 8}%.0f ms").mkString("\n"))
  }

  // ------------------------------------------------------- runtime vs size

  final case class SizeTiming(
      sizeMB: Double,
      greedySearchMs: Long,
      exhaustiveSearchMs: Long,
      localExtractMs: Long,
      sparkExtractMs: Long
  )

  /** Fig 14a + §5.2.2 prose: one schema at sizes 1, 2, 4, 8 and 16 MB (up to
    * `maxMB`); greedy vs exhaustive search time, and extraction run both
    * locally and on Spark.
    */
  def runtimeVsSize(maxMB: Double, spark: org.apache.spark.sql.SparkSession): Figure[Vector[SizeTiming]] = {
    val sizes = Vector(1.0, 2.0, 4.0, 8.0, 16.0).filter(_ <= maxMB)
    def sparkExtractMs(lines: IndexedSeq[String], ts: Vector[Template], maxSpan: Int): Long = {
      val rdd = spark.sparkContext.parallelize(lines, 16)
      val t0 = System.nanoTime()
      val ex = SparkExtract.extract(spark, rdd, ts, maxSpan)
      ex.records.count() // force
      ex.tables.foreach(_.df.count())
      val ms = (System.nanoTime() - t0) / 1000000L
      ex.release()
      ms
    }
    val rows = sizes.map { mb =>
      val r = new scala.util.Random(7)
      val t = Corpus.multiType(r, 3, "sz")
      val approxBlock = 130.0 // chars per record, roughly
      val nBlocks = math.max(50, (mb * 1e6 / approxBlock).toInt)
      val spec = DatasetSpec(f"size-$mb%.1f", Label.MNI, Vector(t -> 1.0), nBlocks,
        NoiseSpec.some(0.03), 42L + (mb * 10).toLong)
      val gt = LogSynth.generate(spec)
      val pE = DmParams(exhaustive = true)
      val infG = Datamaran.infer(gt.lines, DmParams(exhaustive = false))
      val infE = Datamaran.infer(gt.lines, pE)
      val ts = infE.types.map(_.template)
      // the short search leaves the JVM cold: one untimed pass and a full
      // collection, so neither JIT compilation nor search garbage is timed;
      // local extraction then takes the fastest of three runs
      Datamaran.extract(gt.lines, ts, pE.maxSpan)
      System.gc()
      val localMs = Vector.fill(3) {
        val t0 = System.nanoTime()
        val recs = Datamaran.extract(gt.lines, ts, pE.maxSpan)
        require(recs.nonEmpty, s"no records extracted at size $mb MB")
        (System.nanoTime() - t0) / 1000000L
      }.min
      // an untimed first extraction, so Spark's start-up jobs are not charged to the first size
      if (mb == sizes.head) sparkExtractMs(gt.lines, ts, pE.maxSpan)
      SizeTiming(mb, infG.timings.searchMs, infE.timings.searchMs, localMs,
        sparkExtractMs(gt.lines, ts, pE.maxSpan))
    }
    Figure(rows, Tables.render(
      "Fig 14a: running time vs size (paper: avg 17s greedy / 37s exhaustive on <50MB; extraction dominates large)",
      Vector("size(MB)", "greedy search", "exhaustive search", "local extract", "spark extract"),
      rows.map(r => Vector(f"${r.sizeMB}%.1f", Tables.ms(r.greedySearchMs),
        Tables.ms(r.exhaustiveSearchMs), Tables.ms(r.localExtractMs), Tables.ms(r.sparkExtractMs)))))
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
    * §5.2.3's metric; the first type of an exhaustive search that keeps
    * every candidate.
    */
  def optimalTemplate(gt: GtDataset, alpha: Double, maxSpan: Int): Option[Template] =
    Datamaran.infer(gt.lines, DmParams(alpha = alpha, maxSpan = maxSpan, topM = Int.MaxValue))
      .types.headOption.map(_.template)

  /** Fig 15 (runtime vs M, alpha and L) and Fig 16 (how often the returned
    * structure is the optimal — best-MDL — one) on the first `n` manual
    * analogs of at most 1500 blocks; one row per parameter value.
    */
  def paramSensitivity(n: Int = 12): Figure[Vector[ParamPoint]] = {
    val gts = Corpus.manual25.filter(_.nBlocks <= 1500).take(n).map(LogSynth.generate)
    val reference = gts.map(gt => optimalTemplate(gt, 0.10, 10))

    def point(param: String, value: String, p: DmParams): ParamPoint = {
      var totalMs = 0L
      var found = 0
      for ((gt, ref) <- gts.zip(reference)) {
        val inf = Datamaran.infer(gt.lines, p)
        totalMs += inf.timings.searchMs
        val hit = ref match {
          case None    => inf.types.isEmpty
          case Some(t) => inf.types.headOption.exists(_.template == t)
        }
        if (hit) found += 1
      }
      ParamPoint(param, value, totalMs.toDouble / gts.length, 100.0 * found / gts.length)
    }

    val base = DmParams()
    val rows =
      Vector(10, 50, 200, 1000).map(m => point("M", m.toString, base.copy(topM = m))) ++
        Vector(5, 10, 20).map(a => point("alpha", s"$a%", base.copy(alpha = a / 100.0))) ++
        Vector(5, 10, 15).map(l => point("L", l.toString, base.copy(maxSpan = l)))
    Figure(rows, Tables.render(
      "Fig 15/16: parameter sensitivity (paper: robust; M=50->1000 adds ~10pp optimal-found)",
      Vector("param", "value", "avg search ms", "optimal found"),
      rows.map(r => Vector(r.param, r.value, f"${r.avgSearchMs}%.0f", Tables.pct(r.optimalFoundPct)))))
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

  /** Table 3: each step's time under a sweep of the variable that governs
    * its complexity bound; one row per sweep point.
    */
  def stepComplexity(): Figure[Vector[StepTimingRow]] = {
    val r = new scala.util.Random(11)
    val t = Corpus.multiType(r, 3, "cx")
    def mkGt(nBlocks: Int, seed: Long) = LogSynth.generate(
      DatasetSpec(s"cx-$nBlocks", Label.MNI, Vector(t -> 1.0), nBlocks, NoiseSpec.some(0.05), seed))

    val rows = Vector.newBuilder[StepTimingRow]
    val full = DmParams(sampleMaxChars = Int.MaxValue, genSampleMaxChars = Int.MaxValue)

    // one untimed pass first, so JIT compilation is not charged to the
    // first sweep point
    Datamaran.run(mkGt(200, 59L).lines, full)
    // S_data sweep (generation is linear in scanned chars)
    for (n <- Vector(200, 400, 800, 1600)) {
      val gt = mkGt(n, 60L + n)
      val (inf, _) = Datamaran.run(gt.lines, full)
      rows += StepTimingRow("S_data(blocks)", n.toString,
        inf.timings.generationMs, inf.timings.pruningMs,
        inf.timings.evaluationMs, inf.timings.extractionMs, inf.candidatesAfterGeneration)
    }
    // search-only sweeps on one dataset: exhaustive generation is O(2^c)
    // and linear in L, evaluation is linear in M
    val gtC = mkGt(600, 77L)
    val sweeps = Vector[(String, Vector[Int], Int => DmParams)](
      ("c(chars)", Vector(2, 4, 6, 7), c => full.copy(maxExhaustiveChars = c)),
      ("L(lines)", Vector(3, 5, 10, 12), l => full.copy(maxSpan = l)),
      ("M(templates)", Vector(10, 50, 200, 400), m => full.copy(topM = m)))
    for ((variable, values, params) <- sweeps; v <- values) {
      val inf = Datamaran.infer(gtC.lines, params(v))
      rows += StepTimingRow(variable, v.toString,
        inf.timings.generationMs, inf.timings.pruningMs,
        inf.timings.evaluationMs, 0, inf.candidatesAfterGeneration)
    }
    val all = rows.result()
    Figure(all, Tables.render(
      "Table 3: step timings (paper: gen O(S L 2^c), prune O(K log K), eval O(M S), extract O(T))",
      Vector("variable", "value", "generation", "pruning", "evaluation", "extraction", "K"),
      all.map(r => Vector(r.variable, r.value, Tables.ms(r.generationMs),
        Tables.ms(r.pruningMs), Tables.ms(r.evaluationMs), Tables.ms(r.extractionMs),
        r.candidatesK.toString))))
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
    * The rows come with whether DATAMARAN and RecordBreaker handle the
    * control dataset.
    */
  def assumptionChart(): Figure[(Vector[AssumptionRow], Boolean, Boolean)] = {
    val r = new scala.util.Random(5)

    def dmOk(gt: GtDataset) = judgeDatamaran(gt, DmParams())._1.success
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
    // DATAMARAN adds. RecordBreaker handles it when one of its structs is
    // exactly the type's lines.
    val lowCov = LogSynth.generate(
      DatasetSpec("cov", Label.NS, Vector(Corpus.kvType(r) -> 1.0), 1400, NoiseSpec(0.975, NoiseSpec.messy), 4))
    val dmLowCov = {
      val (inf, recs) = Datamaran.run(lowCov.lines, DmParams())
      recs.nonEmpty && inf.types.nonEmpty
    }
    val rbLowCov = {
      val typeLines = lowCov.records.map(_.start)
      RecordBreaker.run(lowCov.lines).structs.exists(_.lineIdxs == typeLines)
    }

    val rows = Vector(
      AssumptionRow("Coverage Threshold", "type at ~5% coverage", rbNeedsIt = !rbLowCov, dmNeedsIt = !dmLowCov),
      AssumptionRow("Non-overlapping", "(made by both, §3.2)", rbNeedsIt = true, dmNeedsIt = true),
      AssumptionRow("Structural Form", "(made by both, §3.3)", rbNeedsIt = true, dmNeedsIt = true),
      AssumptionRow("Boundary", "multi-line records", rbNeedsIt = !rbOk(boundary), dmNeedsIt = !dmOk(boundary)),
      AssumptionRow("Tokenization", "variable dashed ids", rbNeedsIt = !rbOk(tokenization), dmNeedsIt = !dmOk(tokenization))
    )
    def yes(b: Boolean) = if (b) "Yes" else "No"
    Figure((rows, dmCtrl, rbCtrl),
      s"control dataset (all assumptions hold): DM=${ok(dmCtrl)} RB=${ok(rbCtrl)}\n" +
        Tables.render(
          "Table 1: assumption comparison chart " +
            "(paper: Cov No/Yes, Non-ovl Yes/Yes, Form Yes/Yes, Bnd Yes/No, Tok Yes/No)",
          Vector("assumption", "probe", "RecordBreaker", "Datamaran"),
          rows.map(r => Vector(r.assumption, r.probe, yes(r.rbNeedsIt), yes(r.dmNeedsIt)))))
  }
}
