package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import scala.util.Random

import repro.loggen._

/** One input file of a workload. `spec` regenerates its exact lines and
  * ground truth, so the correctness gate need not keep them in memory while
  * files are timed. `format` names its record types; files with the same
  * format share structure.
  */
final case class InputFile(path: Path, spec: DatasetSpec, format: String, chars: Long)

/** A workload: the files generated in set-up, in submission order. */
final case class Workload(name: String, files: Vector[InputFile])

object Workloads {
  val names: Vector[String] = Vector("lake-distinct", "lake-rotated")

  /** Format of a spec: its record types by name and span; NS files have none. */
  def formatOf(spec: DatasetSpec): String =
    if (spec.types.isEmpty) "none"
    else spec.types.map { case (t, _) => s"${t.name}/${t.span}" }.sorted.mkString("+")

  private def mix(seed: Long, salt: Long): Long = new Random(seed * 1000003L + salt).nextLong()

  /** lake-distinct: GitHub-analog specs (Corpus.github100) in the Fig 17a
    * label proportions (9 S(NI), 3 S(I), 3 M(NI), 3 M(I), 2 NS), one per
    * format, scaled to a fifth of the corpus size so that one pass fits a
    * run. The spec list is fixed, because search cost differs 100x between
    * formats and the medians of a seed-dependent draw would depend on the
    * draw; the seed re-seeds the content of every file but gh-si-13.
    *
    * Twenty files, so that the per-file quantiles and the pass time average
    * over more files than one file's run-to-run noise. Two specs are scaled
    * to a tenth: gh-si-13, the known miss, whose search varied 1.2-5.9 s with
    * the content drawn at a fifth, and gh-mi-11, whose M(I) search takes
    * 7-8 s at a fifth and 3.3-3.5 s at a tenth. gh-si-13 also keeps its
    * corpus content whatever the seed: even at a tenth its search took
    * 0.5-2.4 s depending on the content drawn, which moved it across the
    * middle ranks and alone gave the per-file p50 a 16% spread over seeds.
    * It still finds no type and counts as a miss. Left out for the same
    * reason: the full-size evaluation outliers gh-sni-28, gh-sni-29 and
    * gh-mni-02, whose search took 3-18 s, 2-13 s and 11-16 s at a fifth
    * depending on the content drawn.
    *
    * The first two files pay for JIT compilation the warm-up left undone
    * (about 1 s each), so two of the most expensive files come first: the
    * extra time then stays in the top ranks instead of moving a cheap file
    * into the middle ones, where the median is read.
    */
  val distinctIds: Vector[String] = Vector(
    "gh-si-10", "gh-mi-06", "gh-sni-12", "gh-ns-10", "gh-si-00", "gh-sni-01", "gh-mni-05",
    "gh-sni-04", "gh-si-13", "gh-mni-00", "gh-sni-06", "gh-sni-10", "gh-mi-02", "gh-sni-03",
    "gh-mni-01", "gh-sni-05", "gh-mi-11", "gh-sni-23", "gh-ns-00", "gh-sni-35"
  )
  def distinctScale(id: String): Double = if (id == "gh-si-13" || id == "gh-mi-11") 0.1 else 0.2
  val fixedContentId = "gh-si-13"

  def lakeDistinct(seed: Long): Vector[DatasetSpec] = {
    val byId = Corpus.github100.map(s => s.id -> s).toMap
    distinctIds.map { id =>
      val s = byId(id)
      s.copy(nBlocks = (s.nBlocks * distinctScale(id)).toInt,
        seed = if (id == fixedContentId) s.seed else mix(seed, s.seed))
    }
  }

  /** lake-rotated: three log sources, each delivered as four rotated files
    * of 1-2 MB that share the source's record types; every rotation has fresh
    * content. Files arrive rotation by rotation, so from the second round on
    * every file's format has been seen before.
    */
  val rotations = 4

  def lakeRotated(seed: Long): Vector[DatasetSpec] = {
    val r = new Random(31)
    // (source, record type, approximate characters per record)
    val sources = Vector(
      ("app", Corpus.kvType(r), 70),
      ("sys", Corpus.syslogType(r), 70),
      ("tx", Corpus.pipeType(r), 40)
    )
    for {
      rot <- (0 until rotations).toVector
      ((name, t, charsPerRecord), s) <- sources.zipWithIndex
    } yield {
      val mb = 1 + (s + rot) % 2
      DatasetSpec(s"$name.log.$rot", Label.SNI, Vector(t -> 1.0), mb * 1000000 / charsPerRecord,
        NoiseSpec.none, mix(seed, 10L * s + rot))
    }
  }

  def specs(name: String, seed: Long): Vector[DatasetSpec] = name match {
    case "lake-distinct" => lakeDistinct(seed)
    case "lake-rotated"  => lakeRotated(seed)
    case other           => throw new IllegalArgumentException(s"unknown workload $other")
  }

  /** Generate the workload's files under `dir` (set-up work). */
  def materialize(name: String, seed: Long, dir: Path): Workload = {
    Files.createDirectories(dir)
    val files = specs(name, seed).zipWithIndex.map { case (spec, i) =>
      val gt = LogSynth.generate(spec)
      val path = dir.resolve(f"$i%03d-${spec.id}.log")
      Files.write(path, gt.text.getBytes(StandardCharsets.UTF_8))
      InputFile(path, spec, formatOf(spec), gt.sizeChars)
    }
    if (name == "lake-distinct")
      require(files.map(_.format).distinct.length == files.length, "lake-distinct formats must differ")
    Workload(name, files)
  }

  /** A small fixed file that warms the JIT before timing. */
  def warmupSpec: DatasetSpec = {
    val r = new Random(3)
    DatasetSpec("warmup", Label.SNI, Vector(Corpus.csvType(r, 5) -> 1.0), 300, NoiseSpec.none, 99)
  }
}
