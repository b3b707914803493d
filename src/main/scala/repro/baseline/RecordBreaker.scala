package repro.baseline

import repro.core._

/** Reimplementation of RecordBreaker [3] (the unsupervised adaptation of
  * Fisher et al.'s LearnPADS), as the paper's comparison baseline (§5.3.2).
  *
  * RecordBreaker embodies exactly the two extra assumptions of paper
  * Table 1 that DATAMARAN drops:
  *
  *  - Assumption 4 (Boundary): every record is one line — record boundaries
  *    are known beforehand;
  *  - Assumption 5 (Tokenization): RT-CharSet is fixed in advance — the
  *    lexer treats EVERY special character as formatting, for every record
  *    (`RT-CharSet(R) = RT-CharSet-Candidate`).
  *
  * Under those assumptions its structure inference is the same
  * summarization idea as Fisher's: tokenize each line with the fixed lexer,
  * reduce the token sequence to a minimal struct/array template, and group
  * lines by template (the union type-constructor: each group is one
  * inferred structure, emitted as its own table). Reusing DATAMARAN's
  * template machinery for the shared parts isolates the comparison to the
  * assumptions themselves, which is the paper's claim.
  *
  * [[MinCoverage]] mirrors RecordBreaker's MinCoverage knob: groups below
  * the threshold are not reported as structures (their lines are left
  * unexplained), matching its behaviour of discarding low-support branches.
  */
object RecordBreaker {

  /** One inferred structure: a single-line template and the lines (by
    * index) that belong to it.
    */
  final case class RbStruct(template: Template, lineIdxs: Vector[Int])

  final case class RbResult(structs: Vector[RbStruct], unexplained: Vector[Int])

  /** The fixed lexer's RT-CharSet: all special characters (Assumption 5). */
  val FixedCharSet: Set[Char] = Chars.Candidates

  val MinCoverage = 0.02

  def run(lines: IndexedSeq[String]): RbResult = {
    val templates = new TemplateOps.LineTemplates
    val ids = lines.map(l => TemplateOps.LineTemplates.id(templates.reduceLine(l, FixedCharSet.contains)))
    val thresh = math.max(1.0, MinCoverage * lines.length)
    val structs = Vector.newBuilder[RbStruct]
    val unexplained = Vector.newBuilder[Int]
    // ids number the line templates in the order their first lines occur
    for ((id, idxs) <- lines.indices.groupBy(ids).toVector.sortBy(_._1)) {
      val items = templates.items(id)
      // blank and field-less lines, overlong lines and low-support groups
      if (!templates.hasField(id) || items.length > TemplateOps.MaxTemplateItems || idxs.length < thresh)
        unexplained ++= idxs
      else
        structs += RbStruct(structOrArray(Template(items), idxs, lines), idxs.toVector)
    }
    RbResult(structs.result(), unexplained.result().sorted)
  }

  /** Fisher's struct-vs-array decision: a token group whose repetition count
    * is constant across all chunks is a struct (each repetition is its own
    * field); a varying count stays an array/list. Applied per cluster,
    * bottom-up, until no array has a constant count.
    */
  private def structOrArray(
      t0: Template,
      idxs: Iterable[Int],
      lines: IndexedSeq[String]
  ): Template = {
    val cluster = idxs.map(lines).toVector
    val buf = new ParseBuffer
    var t = t0
    var changed = true
    while (changed) {
      changed = false
      val arrays = Mdl.scan(t, cluster, 1).arrays
      // the path-keyed map's iteration order picks the constant array unfolded
      val counts = scala.collection.mutable.HashMap.empty[String, (Int, scala.collection.Set[Int])]
      for (id <- arrays.indices if arrays(id).counts.nonEmpty)
        counts(t.program.arrays(id)) = (id, arrays(id).counts)
      val constant = counts.valuesIterator.collectFirst {
        case (id, ks) if ks.size == 1 && ks.head <= 64 => (id, ks.head)
      }
      constant match {
        case Some((id, k)) =>
          // prefer the FULL unfold (fewest remaining array nodes)
          val observed = arrays.indices.map(j => if (j == id) Set(k) else Set.empty[Int])
          val unfolded = Refine.unfoldCandidates(t, observed)
            .sortBy(_.program.arrays.length)
            .find(c => c.program.parse(cluster, 0, 1, buf) > 0)
          unfolded match {
            case Some(u) if u.canonical != t.canonical => t = u; changed = true
            case _ => ()
          }
        case None => ()
      }
    }
    t
  }

  /** Parse a line against its struct's template (always succeeds for lines
    * grouped under it). Used by the evaluation criterion.
    */
  def parseLine(s: RbStruct, line: String): Parsed =
    Datamaran.extract(Vector(line), Vector(s.template), 1).headOption.map(_.parsed).getOrElse(
      sys.error(s"RecordBreaker line failed to re-parse under its own template")
    )
}
