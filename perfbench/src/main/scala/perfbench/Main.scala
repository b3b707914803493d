package perfbench

import java.nio.file.{Files, Path, Paths}
import java.util.Comparator

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.BenchAccess
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.eval.Criteria
import repro.exp.Experiments
import repro.loggen.{Label, LogSynth}

/** The DATAMARAN benchmark: one JVM, one local Spark session, one
  * closed-loop client that hands each file to the production entry point
  * `SparkExtract.inferAndExtract` (the call `jobs/ExtractJob.scala` makes) and
  * waits until every record and field table is materialized before
  * submitting the next.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *
  * The last line of standard output is the JSON result; progress and the
  * human-readable report go to standard error.
  */
object Main {

  /** Exhaustive search with the parameters behind EXPERIMENTS.md (alpha=10%,
    * L=10, M=50, 60k/24k sample bound).
    */
  val params: DmParams = Experiments.defaults(exhaustive = true)
  /** `SparkExtract.inferAndExtract`'s default driver-side sample. */
  val sampleLines = 20000
  /** Set-ups per run; `setup_s` is their median. */
  val setupReps = 5

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean)

  def parseArgs(args: Array[String]): Args = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1")
    require(Workloads.names.contains(a.workload), s"unknown workload ${a.workload}")
    require(a.seconds > 0, "--seconds must be positive")
    a
  }

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv)
    val root = Paths.get("").toAbsolutePath
    val work = root.resolve(".bench_build").resolve("work")
      .resolve(s"${args.workload}-${args.seed}-${ProcessHandle.current.pid}")
    val result =
      try new Run(args, root, work).run()
      catch {
        case e: Throwable =>
          e.printStackTrace()
          sys.exit(1) // Spark threads must not keep a failed run alive
      } finally deleteTree(work)
    println(result)
  }

  def deleteTree(p: Path): Unit =
    if (Files.exists(p))
      Files.walk(p).sorted(Comparator.reverseOrder[Path]()).forEach(x => Files.delete(x))

  def startSpark(root: Path): SparkSession = {
    val tmp = root.resolve(".bench_build").resolve("spark")
    SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", tmp.resolve("local").toString)
      .config("spark.sql.warehouse.dir", tmp.resolve("warehouse").toString)
      .config("spark.sql.shuffle.partitions", "64")
      .getOrCreate()
  }

  def log(s: String): Unit = Console.err.println(s"[perfbench] $s")
}

/** Everything the client observed about one timed file. */
final case class FileRecord(
    file: InputFile,
    latencyNs: Long,
    threw: Boolean,
    mismatch: Boolean,
    criterionMiss: Boolean,
    allocBytes: Long,
    gcMs: Long,
    records: Long,
    rows: Long,
    refNs: Long
)

/** Output of one file's pipeline: the structure it used, the tables, and
  * each table's materialized row count.
  */
final case class Extracted(
    templates: Vector[Template],
    ex: SparkExtract.SparkExtraction,
    recordCount: Long,
    tableRows: Vector[((Int, String), Long)]
)

final class Run(args: Main.Args, root: Path, work: Path) {
  import Main._

  private val tracer = new Tracer
  private val jvm = new JvmStats
  private val sparkStats = new SparkStats
  private var spark: SparkSession = _
  private var workload: Workload = _
  /** Each traced file's inference with the characters its generation step scanned. */
  private val infers = ArrayBuffer.empty[(Inference, Long)]
  /** Root span of the file being timed (traced runs). */
  private var fileRoot = -1

  /** The first set-up comes before the timed phase; the others repeat it
    * after, when the JIT no longer competes with them for the cores.
    */
  def run(): String = {
    def timedSetUp(): Vector[Long] = {
      if (spark != null) spark.stop()
      setUp()
    }
    val first = timedSetUp()
    try {
      val recs = timedPhase()
      val reps = if (args.trace) 1 else setupReps // traced runs do not report setup_s
      val steps = first +: (2 to reps).map(_ => timedSetUp())
      log("set-up reps (Spark + inputs + warm-up): " +
        steps.map(st => st.map(n => f"${n / 1e9}%.2f").mkString(" + ") + f" = ${st.sum / 1e9}%.2f s").mkString(", "))
      report(recs, Stats.median(steps.map(_.sum / 1e9)))
    } finally spark.stop()
  }

  /** One set-up: Spark session, input files, and a warm-up file through the
    * whole pipeline so the first timed file does not pay for JIT compilation.
    * Returns the time of each of the three steps.
    */
  private def setUp(): Vector[Long] = {
    val t0 = System.nanoTime()
    spark = startSpark(root)
    spark.sparkContext.setLogLevel("ERROR")
    val t1 = System.nanoTime()
    deleteTree(work)
    workload = Workloads.materialize(args.workload, args.seed, work.resolve("in"))
    val warm = work.resolve("warmup.log")
    Files.write(warm, LogSynth.generate(Workloads.warmupSpec).text.getBytes("UTF-8"))
    val t2 = System.nanoTime()
    materializeTables(SparkExtract.inferAndExtract(spark, spark.sparkContext.textFile(warm.toString), params)._2)
    Vector(t1 - t0, t2 - t1, System.nanoTime() - t2)
  }

  // ------------------------------------------------------------ the pipeline

  private def materializeTables(ex: SparkExtract.SparkExtraction): (Long, Vector[((Int, String), Long)]) =
    (ex.records.count(), ex.tables.map(t => ((t.typeIdx, t.path), t.df.count())))

  /** The timed work for one file: `inferAndExtract` untraced; traced, the
    * same three calls it makes, each inside a span.
    */
  private def process(f: InputFile, idx: Int): Extracted = {
    val lines = spark.sparkContext.textFile(f.path.toString)
    if (!args.trace) {
      val (inf, ex) = SparkExtract.inferAndExtract(spark, lines, params, sampleLines)
      val (n, rows) = materializeTables(ex)
      Extracted(inf.types.map(_.template), ex, n, rows)
    } else {
      val (sample, _) = tracer.timed(fileRoot, idx, "input")(lines.take(sampleLines).toIndexedSeq)
      val (inf, sid) = tracer.timed(fileRoot, idx, "search")(Datamaran.infer(sample, params))
      val templates = inf.types.map(_.template)
      val (ex, _) = tracer.timed(fileRoot, idx, "extract")(SparkExtract.extract(spark, lines, templates, params.maxSpan))
      val ((n, rows), _) = tracer.timed(fileRoot, idx, "materialize")(materializeTables(ex))
      // the search step's own StepTimings, laid out in call order inside its span
      var t = tracer.spans(sid).start
      for ((layer, ms) <- Seq("generation" -> inf.timings.generationMs,
                              "pruning" -> inf.timings.pruningMs,
                              "evaluation" -> inf.timings.evaluationMs)) {
        tracer.add(sid, idx, layer, t, t + ms * 1000000L)
        t += ms * 1000000L
      }
      infers += ((inf, generationChars(sample)))
      Extracted(templates, ex, n, rows)
    }
  }

  /** Characters the first generation pass scans: its chunk subsample. */
  private def generationChars(sample: IndexedSeq[String]): Long =
    Generation
      .sampleLines(sample, params.copy(sampleMaxChars = math.min(params.genSampleMaxChars, params.sampleMaxChars)))
      .iterator.map(_.length + 1L).sum

  /** The closed loop: one whole pass over the workload's files. Each
    * workload is sized to about `--seconds` of timed work; a slower program
    * takes longer over the same files rather than being cut short.
    */
  private def timedPhase(): Vector[FileRecord] = {
    val sc = spark.sparkContext
    if (args.trace) sc.addSparkListener(sparkStats)
    var timedNs = 0L
    val out = Vector.newBuilder[FileRecord]
    for ((f, idx) <- workload.files.zipWithIndex) {
      jvm.settle()
      val alloc0 = jvm.threadAllocatedBytes
      val gc0 = jvm.gcMillis
      if (args.trace) fileRoot = tracer.open(-1, idx, "client")
      sparkStats.active = true
      jvm.active = true
      val t0 = System.nanoTime()
      val res =
        try Right(process(f, idx))
        catch { case NonFatal(e) => Left(e) }
      val t1 = System.nanoTime()
      jvm.active = false
      if (args.trace) tracer.close(fileRoot)
      val alloc = jvm.threadAllocatedBytes - alloc0
      val gc = jvm.gcMillis - gc0
      if (args.trace) {
        BenchAccess.drainListeners(sc)
        addStageSpans(fileRoot, idx)
      }
      sparkStats.active = false
      timedNs += t1 - t0
      out += (res match {
        case Left(e) =>
          log(s"file ${f.spec.id} threw: $e")
          FileRecord(f, t1 - t0, threw = true, mismatch = false, criterionMiss = false, alloc, gc, 0, 0, 0)
        case Right(x) =>
          val (mismatch, miss, rows, refNs) = gate(f, x)
          log(f"file ${f.spec.id}%-14s ${(t1 - t0) / 1e9}%7.3f s  types=${x.templates.length} " +
            f"records=${x.recordCount} ok=${!mismatch && !miss}")
          FileRecord(f, t1 - t0, threw = false, mismatch, miss, alloc, gc, x.recordCount, rows, refNs)
      })
    }
    if (timedNs > 2 * args.seconds * 1e9)
      log(f"timed work took ${timedNs / 1e9}%.1f s, more than twice --seconds ${args.seconds}")
    out.result()
  }

  private var stagesSeen = 0
  private lazy val epochToNanoOffset = System.nanoTime() - System.currentTimeMillis() * 1000000L

  /** Spark stages that ran during file `idx`, as children of the span of
    * that file covering them (listener times are epoch milliseconds).
    */
  private def addStageSpans(root: Int, idx: Int): Unit = {
    val fileSpans = tracer.spans.filter(s => s.file == idx && s.id != root &&
      Set("input", "extract", "materialize").contains(s.layer)).toVector
    val ivs = sparkStats.synchronized {
      val xs = sparkStats.stageIntervals.drop(stagesSeen).toVector
      stagesSeen = sparkStats.stageIntervals.length
      xs
    }
    for ((a, b) <- ivs) {
      val s = a * 1000000L + epochToNanoOffset
      val e = b * 1000000L + epochToNanoOffset
      val mid = (s + e) / 2
      val parent = fileSpans.find(p => p.start <= mid && mid < p.end).map(_.id).getOrElse(root)
      tracer.add(parent, idx, "spark", s, e)
    }
  }

  // ------------------------------------------------------ correctness gate

  /** Compare Spark's record boundaries and per-table row counts with the
    * local `Datamaran.extract` reference, and judge structured files by the
    * §9.3 criterion against the generator's ground truth. Runs untimed.
    */
  private def gate(f: InputFile, x: Extracted): (Boolean, Boolean, Long, Long) = {
    val gt = LogSynth.generate(f.spec)
    val t0 = System.nanoTime()
    val ref = Datamaran.extract(gt.lines, x.templates, params.maxSpan)
    val refNs = System.nanoTime() - t0
    val refRows = ref.iterator
      .flatMap(r => Relational.toRows(r.parsed).iterator.map(tr => (r.typeIdx, tr.path)))
      .toVector.groupMapReduce(identity)(_ => 1L)(_ + _)
    val refBounds = ref.map(r => (r.start.toLong, r.span, r.typeIdx))
    val got = x.ex.records.collect().iterator
      .map(r => (r.getLong(1), r.getInt(2), r.getInt(0))).toVector.sortBy(_._1)
    val rowsOk = x.tableRows.forall { case (k, n) => refRows.getOrElse(k, 0L) == n } &&
      refRows.keySet.subsetOf(x.tableRows.map(_._1).toSet)
    val mismatch = got != refBounds || x.recordCount != refBounds.length || !rowsOk
    if (mismatch) log(s"file ${f.spec.id}: Spark output differs from the local reference")
    val miss = f.spec.label != Label.NS && !Criteria.judge(gt, Criteria.fromDatamaran(ref)).success
    (mismatch, miss, x.tableRows.map(_._2).sum, refNs)
  }

  // ---------------------------------------------------------------- report

  private def report(recs: Vector[FileRecord], setupS: Double): String = {
    require(recs.nonEmpty, "no file completed")
    val n = recs.length
    val timedS = recs.map(_.latencyNs).sum / 1e9
    val lat = recs.map(_.latencyNs / 1e9).sorted
    val (tail, tailLabel) = Stats.tail(lat)
    val threw = recs.count(_.threw)
    val mismatched = recs.count(_.mismatch)
    val bad = recs.count(r => r.threw || r.mismatch || r.criterionMiss)
    val seen = scala.collection.mutable.Set.empty[String]
    val recurring = recs.count(r => !seen.add(r.file.format))
    val chars = recs.map(_.file.chars).sum

    log(f"${args.workload} seed=${args.seed}: $n files, ${chars / 1e6}%.3f M chars, timed $timedS%.2f s; " +
      f"tail = $tailLabel of $n samples; failed_share = $bad/$n " +
      f"(threw $threw, differs from reference $mismatched, criterion misses ${recs.count(_.criterionMiss)}); " +
      f"recurring-format share = $recurring/$n")

    val metrics: Vector[(String, Double, String)] =
      if (!args.trace) Vector(
        ("setup_s", setupS, "s"),
        ("file_latency_p50_s", Stats.p50(lat), "s"),
        ("file_latency_tail_s", tail, "s"),
        ("files_per_s", n / timedS, "1/s"),
        ("input_mb_per_s", chars / 1e6 / timedS, "MB/s"),
        ("ok_share", (n - bad).toDouble / n, "share"),
        ("peak_heap_mb", jvm.peakHeapBytes / 1048576.0, "MB")
      )
      else layerMetrics(recs, timedS, lat)
    metrics.foreach { case (k, v, u) => log(f"  $k%-28s $v%14.6f $u") }

    // one machine-readable line describing the run, for the workload manifest
    val shares =
      if (!args.trace) ""
      else Trace.selfByLayer(tracer.spans.toVector).toVector.sorted
        .map { case (l, ns) => f""""$l": ${ns / 1e9 / timedS}%.4f""" }.mkString(""", "self_share": {""", ", ", "}")
    log(s"""manifest {"workload": "${args.workload}", "seed": ${args.seed}, "trace": ${args.trace}, """ +
      s""""files": [${recs.map(r => "\"" + r.file.spec.id + "\"").mkString(", ")}], "chars": $chars, """ +
      s""""recurring_share": ${Stats.num(recurring.toDouble / n)}, "tail": "$tailLabel of $n", """ +
      s""""failed_share": ${Stats.num(bad.toDouble / n)}, "p50_s": ${Stats.num(Stats.p50(lat))}$shares}""")
    if (args.trace) writeSpans()

    val ms = metrics.map { case (k, v, u) => s""""$k": {"value": ${Stats.num(v)}, "unit": "$u"}""" }
    s"""{"correct": ${threw == 0 && mismatched == 0}, "attempted": $n, "failed": ${threw + mismatched}, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }

  /** Per-layer metrics of a traced run, per timed file. */
  private def layerMetrics(recs: Vector[FileRecord], timedS: Double, lat: Vector[Double]): Vector[(String, Double, String)] = {
    val n = recs.length.toDouble
    val spans = tracer.spans.toVector
    def busy(layer: String) = spans.filter(_.layer == layer).map(_.dur).sum / 1e9 / n
    val selfBy = Trace.selfByLayer(spans)
    def self(layer: String) = selfBy.getOrElse(layer, 0L) / 1e9 / n
    def perInfer(f: (Inference, Long) => Double) = infers.iterator.map { case (i, c) => f(i, c) }.sum / n

    // extraction = SparkExtract.extract plus the table materialization that runs its phase 2
    val exSpans = spans.filter(s => s.layer == "extract" || s.layer == "materialize")
    val stages = spans.filter(_.layer == "spark").map(s => (s.start, s.end))
    val driverNs = exSpans.map(s => s.dur - Trace.unionLength(stages, s.start, s.end)).sum
    val cores = Runtime.getRuntime.availableProcessors
    val accounted = selfBy.filter(_._1 != "client").values.sum / 1e9

    Vector(
      ("search.busy_s", busy("search"), "s"),
      ("search.types_found", perInfer((i, _) => i.types.length), "count"),
      ("search.sample_lines", perInfer((i, _) => i.sampleLineCount), "count"),
      ("generation.busy_s", perInfer((i, _) => i.timings.generationMs / 1e3), "s"),
      ("generation.candidates_k", perInfer((i, _) => i.candidatesAfterGeneration), "count"),
      ("generation.sample_chars", perInfer((_, c) => c.toDouble), "chars"),
      ("pruning.busy_s", perInfer((i, _) => i.timings.pruningMs / 1e3), "s"),
      ("evaluation.busy_s", perInfer((i, _) => i.timings.evaluationMs / 1e3), "s"),
      ("extract.busy_s", exSpans.map(_.dur).sum / 1e9 / n, "s"),
      ("extract.driver_s", driverNs / 1e9 / n, "s"),
      ("extract.records", recs.map(_.records).sum / n, "count"),
      ("extract.rows", recs.map(_.rows).sum / n, "count"),
      ("extract.local_reference_s", recs.map(_.refNs).sum / 1e9 / n, "s"),
      ("spark.jobs", sparkStats.jobs / n, "count"),
      ("spark.stages", sparkStats.stages / n, "count"),
      ("spark.tasks", sparkStats.tasks / n, "count"),
      ("spark.task_run_s", sparkStats.taskRunMs / 1e3 / n, "s"),
      ("spark.task_cpu_s", sparkStats.taskCpuNs / 1e9 / n, "s"),
      ("spark.result_bytes", sparkStats.resultBytes / n, "bytes"),
      ("spark.shuffle_write_bytes", sparkStats.shuffleWriteBytes / n, "bytes"),
      ("spark.core_utilization", sparkStats.taskRunMs / 1e3 / (timedS * cores), "share"),
      ("input.sample_s", busy("input"), "s"),
      ("jvm.gc_s", recs.map(_.gcMs).sum / 1e3 / n, "s"),
      ("jvm.driver_alloc_mb", recs.map(_.allocBytes).sum / 1048576.0 / n, "MB"),
      ("self.client_s", self("client"), "s"),
      ("self.input_s", self("input"), "s"),
      ("self.search_s", self("search"), "s"),
      ("self.generation_s", self("generation"), "s"),
      ("self.pruning_s", self("pruning"), "s"),
      ("self.evaluation_s", self("evaluation"), "s"),
      ("self.extract_s", self("extract"), "s"),
      ("self.materialize_s", self("materialize"), "s"),
      ("self.spark_s", self("spark"), "s"),
      ("trace.file_latency_p50_s", Stats.p50(lat), "s"),
      ("trace.accounted_share", accounted / timedS, "share")
    )
  }

  private def writeSpans(): Unit = {
    val dir = root.resolve(".bench_build").resolve("traces")
    Files.createDirectories(dir)
    val out = dir.resolve(s"${args.workload}-${args.seed}.jsonl")
    Files.write(out, (tracer.toJsonLines.mkString("\n") + "\n").getBytes("UTF-8"))
    log(s"spans written to ${root.relativize(out)}")
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** Harrell-Davis estimate of the p-quantile of sorted samples: the mean of
    * all order statistics, weighted by the Beta((n+1)p, (n+1)(1-p)) mass over
    * each one's share of [0, 1]. With the 12-20 files of a run, a single
    * order statistic moves with one file's run-to-run noise and jumps where
    * neighbouring files differ in cost; the weighted mean of the ranks around
    * p does not.
    */
  def harrellDavis(sorted: Vector[Double], p: Double): Double = {
    val n = sorted.length
    if (n == 1) sorted(0)
    else {
      val a = p * (n + 1)
      val b = (1 - p) * (n + 1)
      val perRank = 200 // midpoint rule, 200 points inside each rank's interval
      val w = Array.tabulate(n) { i =>
        (0 until perRank).iterator.map { j =>
          val x = (i * perRank + j + 0.5) / (n * perRank)
          math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        }.sum
      }
      val total = w.sum
      sorted.indices.iterator.map(i => w(i) / total * sorted(i)).sum
    }
  }

  /** Per-file latency median (Harrell-Davis). */
  def p50(sorted: Vector[Double]): Double = harrellDavis(sorted, 0.5)

  /** The highest percentile with at least 10 samples beyond it, but never
    * below p75: with fewer than 40 samples the 10-beyond percentile would
    * fall under p75, down to the median at 20. Estimated by Harrell-Davis.
    * Returns the value and its label.
    */
  def tail(sorted: Vector[Double]): (Double, String) = {
    val n = sorted.length
    val p = math.max(0.75, (n - 10.0) / n)
    (harrellDavis(sorted, p), f"p${100 * p}%.0f (Harrell-Davis)")
  }

  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else java.math.BigDecimal.valueOf(v).toPlainString
}
