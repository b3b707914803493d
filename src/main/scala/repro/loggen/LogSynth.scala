package repro.loggen

import scala.util.Random

/** Dataset-spec model and generator for the synthetic log corpus that
  * substitutes the paper's GitHub crawl and manually collected files
  * (see DESIGN.md §2). Every dataset carries full ground truth: record
  * boundaries, record types, and the *intended extraction targets* of §5.1
  * against which the success criterion is judged.
  */

/** A piece of a record line. */
sealed trait Part
/** Constant formatting text. */
final case class Lit(s: String) extends Part
/** A generated field value (not an intended target by itself). */
final case class Fld(gen: FieldGen.Gen) extends Part
/** A contiguous group of parts whose rendered text is one intended
  * extraction target named `name` (e.g. an IP, a timestamp, a message).
  */
final case class Target(name: String, parts: Vector[Part]) extends Part

/** One record type: a fixed number of lines, each a part sequence. */
final case class RecordTypeSpec(name: String, lines: Vector[Vector[Part]]) {
  def span: Int = lines.length
}

/** Category labels of paper Table 4. */
sealed abstract class Label(val show: String)
object Label {
  case object SNI extends Label("S(NI)")
  case object SI  extends Label("S(I)")
  case object MNI extends Label("M(NI)")
  case object MI  extends Label("M(I)")
  case object NS  extends Label("NS")
  val all: Vector[Label] = Vector(SNI, SI, MNI, MI, NS)
}

/** Noise model: with probability `rate` a block is a noise line drawn from
  * `gen` (which should randomize its own shape so that no noise template
  * accumulates alpha% coverage — real "no structure" content).
  */
final case class NoiseSpec(rate: Double, gen: Random => String)

object NoiseSpec {
  /** Structurally randomized junk: the number, kind and position of pieces
    * and the separating special characters all vary per line, so that no
    * minimal structure template accumulates alpha% coverage (true
    * "no structure" content in the sense of Definition 2.4).
    */
  val messy: Random => String = { r =>
    val specials = "!@#$%^&*=~?;|<>/+(){}[]"
    def sp() = specials(r.nextInt(specials.length))
    val sb = new StringBuilder
    if (r.nextBoolean()) sb.append(" " * (1 + r.nextInt(6)))
    val pieces = 2 + r.nextInt(6)
    var i = 0
    while (i < pieces) {
      r.nextInt(6) match {
        case 0 => sb.append(FieldGen.word(r))
        case 1 => sb.append(FieldGen.hex(1 + r.nextInt(9))(r))
        case 2 => sb.append(sp())
        case 3 => sb.append(' ')
        // hex, not decimal: decimal runs would be genuinely compressible
        // integer columns, i.e. real structure, not noise
        case 4 => sb.append(FieldGen.hex(2 + r.nextInt(6))(r)).append(sp())
        case _ => sb.append(sp()).append(FieldGen.word(r))
      }
      i += 1
    }
    if (!sb.exists(c => c.isLetterOrDigit)) sb.append(FieldGen.word(r))
    sb.toString
  }
  def none: NoiseSpec = NoiseSpec(0.0, messy)
  def some(rate: Double): NoiseSpec = NoiseSpec(rate, messy)
}

/** A complete dataset spec. `nBlocks` counts record/noise blocks. */
final case class DatasetSpec(
    id: String,
    label: Label,
    types: Vector[(RecordTypeSpec, Double)],
    nBlocks: Int,
    noise: NoiseSpec,
    seed: Long
)

/** Ground truth for one record instance. */
final case class GtRecord(
    typeName: String,
    start: Int,
    end: Int, // inclusive
    targets: Vector[(String, String)]
)

/** A generated dataset with its ground truth. */
final case class GtDataset(
    spec: DatasetSpec,
    lines: Vector[String],
    records: Vector[GtRecord]
) {
  def sizeChars: Long = lines.iterator.map(_.length + 1L).sum
  def text: String = lines.mkString("\n") + (if (lines.nonEmpty) "\n" else "")
}

object LogSynth {

  /** Render one record of `t`; returns its lines and target values. */
  def renderRecord(t: RecordTypeSpec, r: Random): (Vector[String], Vector[(String, String)]) = {
    val targets = Vector.newBuilder[(String, String)]
    def renderParts(ps: Vector[Part], sb: StringBuilder): Unit = ps.foreach {
      case Lit(s)   => sb.append(s)
      case Fld(g)   => sb.append(g(r))
      case Target(n, inner) =>
        val start = sb.length
        renderParts(inner, sb)
        targets += (n -> sb.substring(start))
    }
    val lines = t.lines.map { ps =>
      val sb = new StringBuilder
      renderParts(ps, sb)
      sb.toString
    }
    (lines, targets.result())
  }

  def generate(spec: DatasetSpec): GtDataset = {
    val r = new Random(spec.seed)
    val lines = Vector.newBuilder[String]
    val records = Vector.newBuilder[GtRecord]
    var lineNo = 0
    val totalW = spec.types.map(_._2).sum

    def pickType(): RecordTypeSpec = {
      var x = r.nextDouble() * totalW
      for ((t, w) <- spec.types) {
        if (x < w) return t
        x -= w
      }
      spec.types.last._1
    }

    var b = 0
    while (b < spec.nBlocks) {
      if (spec.types.isEmpty || r.nextDouble() < spec.noise.rate) {
        lines += spec.noise.gen(r)
        lineNo += 1
      } else {
        val t = pickType()
        val (ls, tg) = renderRecord(t, r)
        records += GtRecord(t.name, lineNo, lineNo + ls.length - 1, tg)
        lines ++= ls
        lineNo += ls.length
      }
      b += 1
    }
    GtDataset(spec, lines.result(), records.result())
  }
}
