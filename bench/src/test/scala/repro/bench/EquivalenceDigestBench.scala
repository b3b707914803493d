package repro.bench

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import repro.SparkSpec
import repro.baseline.RecordBreaker
import repro.core._
import repro.loggen.{Corpus, LogSynth}

/** Equivalence harness for changes that must not change output. For every
  * `Corpus.manual25` + `Corpus.github100` spec, under exhaustive and greedy
  * search (`DmParams(exhaustive = ...)`), it prints one line
  *
  *   EQ <exhaustive|greedy> <spec id> <digest> types=<n> records=<n>
  *
  * where the digest covers the canonical templates, the raw bits of every
  * MDL score and sample coverage, K and the sample line count of
  * `Datamaran.infer`, and the `(typeIdx, start, span)` and relational rows
  * of `Datamaran.extract`. Per spec it also prints
  *
  *   EQ rb <spec id> <digest>
  *
  * over every `RecordBreaker.run` struct's canonical template and line
  * indices, then the unexplained lines. Run it on two checkouts and diff
  * the `EQ` lines:
  *
  *   sbt "bench/testOnly repro.bench.EquivalenceDigestBench" | grep '^EQ ' > eq.txt
  *
  * Under exhaustive search it also asserts that `SparkExtract.extract` over
  * 7 and over 61 partitions gives the local records and table rows.
  */
class EquivalenceDigestBench extends SparkSpec {

  private final class Digest {
    private val md = MessageDigest.getInstance("SHA-256")
    def add(s: String): Unit = { md.update(s.getBytes(UTF_8)); md.update(0.toByte) }
    def add(x: Long): Unit = add(x.toString)
    def add(x: Double): Unit = add(java.lang.Double.doubleToRawLongBits(x))
    def hex: String = md.digest().take(16).map(b => f"$b%02x").mkString
  }

  test("digest of inference and extraction on all 125 corpus specs") {
    import scala.concurrent.{Await, ExecutionContext, Future}
    import scala.concurrent.duration.Duration
    val specs = Corpus.manual25 ++ Corpus.github100
    val pool = java.util.concurrent.Executors.newFixedThreadPool(
      math.max(1, Runtime.getRuntime.availableProcessors() / 2))
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    val results = try {
      val futures = for (exhaustive <- Vector(true, false); spec <- specs) yield Future {
        val p = DmParams(exhaustive = exhaustive)
        val gt = LogSynth.generate(spec)
        val inf = Datamaran.infer(gt.lines, p)
        val ts = inf.types.map(_.template)
        val recs = Datamaran.extract(gt.lines, ts, p.maxSpan)
        val d = new Digest
        for (t <- inf.types) {
          d.add(t.template.canonical)
          d.add(t.mdlScore)
          d.add(t.sampleCoverage)
        }
        d.add(inf.candidatesAfterGeneration.toLong)
        d.add(inf.sampleLineCount.toLong)
        for (r <- recs) {
          d.add(s"${r.typeIdx} ${r.start} ${r.span}")
          for (tr <- Relational.toRows(r.parsed)) d.add((tr.path +: tr.ord +: tr.values).mkString("\u0001"))
        }
        val mode = if (exhaustive) "exhaustive" else "greedy"
        val line = s"EQ $mode ${spec.id} ${d.hex} types=${ts.length} records=${recs.length}"
        val (rbLine, mismatches) = if (!exhaustive) (None, Vector.empty) else {
          val rb = RecordBreaker.run(gt.lines)
          val drb = new Digest
          for (s <- rb.structs) {
            drb.add(s.template.canonical)
            drb.add(s.lineIdxs.mkString(" "))
          }
          drb.add(rb.unexplained.mkString(" "))
          (Some(s"EQ rb ${spec.id} ${drb.hex}"), Vector(7, 61).flatMap { k =>
            val ex = SparkExtract.extract(spark, spark.sparkContext.parallelize(gt.lines, k), ts, p.maxSpan)
            try SparkEquality.mismatch(ex, recs).map(m => s"$k partitions: $m") finally ex.release()
          })
        }
        (line +: rbLine.toVector, mismatches.map(m => s"${spec.id}: $m"))
      }
      Await.result(Future.sequence(futures), Duration.Inf)
    } finally pool.shutdown()
    results.foreach(_._1.foreach(println))
    val mismatches = results.flatMap(_._2)
    assert(mismatches.isEmpty, mismatches.mkString("; "))
  }
}
