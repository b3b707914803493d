package repro.core

/** Structure refinement (paper §4.3): array unfolding and structure
  * shifting, applied to the top-M templates during the evaluation step.
  * Each revision is kept only when it improves the regularity score.
  */
object Refine {

  /** All single-node array revisions of a template, given the observed
    * repetition counts of each array id of [[Template.program]]:
    *
    *  - full unfold: `({A}x)*{A}y` -> `A x A x ... A y` with exactly k
    *    copies — proposed for every observed count k of the array
    *    (proposing them all lets the best one win by score even when
    *    counts vary);
    *  - partial unfold: `({A}x)*{A}y` -> `A x ({A}x)*{A}y` — peels one
    *    leading element while keeping the non-deterministic suffix
    *    (the paper's mechanism for "regular fields mixed with text fields").
    */
  def unfoldCandidates(t: Template, observed: IndexedSeq[collection.Set[Int]]): Vector[Template] = {
    // the program's array ids: an array's id precedes its body's, which
    // precede the next item's
    var id = 0
    def rewriteAt(items: Vector[TElem]): Vector[Vector[TElem]] = {
      val res = Vector.newBuilder[Vector[TElem]]
      items.zipWithIndex.foreach {
        case (TArray(body, x, y), i) =>
          // bound the fan-out: propose at most the 4 smallest observed counts
          val counts = observed(id).toVector.sorted.take(4)
          id += 1
          // full unfolds
          for (k <- counts if k >= 1 && k <= 64) {
            val flat = Vector.tabulate(k) { j =>
              if (j < k - 1) body :+ TChar(x) else body :+ TChar(y)
            }.flatten
            res += items.patch(i, flat, 1)
          }
          // partial unfold (needs at least 2 elements everywhere to stay valid)
          if (counts.nonEmpty && counts.min >= 2) {
            val peeled = (body :+ TChar(x)) ++ Vector(TArray(body, x, y))
            res += items.patch(i, peeled, 1)
          }
          // recurse into the body
          for (newBody <- rewriteAt(body))
            res += items.updated(i, TArray(newBody, x, y))
        case _ => ()
      }
      res.result()
    }

    rewriteAt(t.items).map(Template(_)).distinctBy(_.canonical)
  }

  /** Collapse a template that is k >= 2 exact copies of the same top-level
    * line-group sequence into a single copy. The boundary enumeration
    * necessarily produces such k-fold self-concatenations of every
    * single-record template (a pair of records is also a "candidate
    * record"), and under unique coverage they tie with the true template —
    * this canonicalization removes the redundancy before evaluation.
    */
  def periodReduce(t: Template): Template = {
    val segments = t.lineGroups
    val n = segments.length
    var p = 1
    while (p <= n / 2) {
      if (n % p == 0 && (p until n).forall(i => segments(i) == segments(i % p)))
        return Template(segments.take(p).flatten)
      p += 1
    }
    t
  }

  /** Cyclic line shifts of a multi-line template (paper §4.3.2): the
    * rotations of its top-level line groups ([[Template.lineGroups]]). A
    * '\n' inside an array is not a cut point, so a template with one
    * top-level line group has no shift.
    */
  def cyclicShifts(t: Template): Vector[Template] = {
    val segments = t.lineGroups
    (1 until segments.length).toVector.map(s => Template((segments.drop(s) ++ segments.take(s)).flatten))
  }

  /** Apply the RefineST loop of Algorithm 2 to a period-reduced template
    * ([[periodReduce]]): repeatedly take the best score-improving unfold;
    * then resolve shifting ambiguity by earliest first occurrence in the
    * data.
    */
  def refine(
      t0: Template,
      lines: IndexedSeq[String],
      maxSpan: Int,
      minCoverage: Double,
      skipIfAbove: Double
  ): (Template, Mdl.ParseScan, Double) = {
    var t = t0
    var sc = Mdl.scan(t, lines, maxSpan)
    var score = Mdl.score(t, sc)
    // templates below the acceptance coverage can never win, and templates
    // scoring far above the best candidate seen so far cannot recover
    // through unfolding (unfolds only sharpen field typing) — skip the
    // expensive loop for both
    if (sc.coverage < minCoverage || score > skipIfAbove) return (t, sc, score)
    var improved = true
    var rounds = 0
    while (improved && rounds < 5) {
      improved = false
      rounds += 1
      val cands = unfoldCandidates(t, sc.arrays.map(_.counts))
      var best: Option[(Template, Mdl.ParseScan, Double)] = None
      for (c <- cands) {
        val csc = Mdl.scan(c, lines, maxSpan)
        if (csc.recordCount > 0) {
          val cs = Mdl.score(c, csc)
          if (cs < score && best.forall(_._3 > cs)) best = Some((c, csc, cs))
        }
      }
      best.foreach { case (c, csc, cs) =>
        t = c; sc = csc; score = cs; improved = true
      }
    }
    // structure shifting: among cyclic variants with comparable score,
    // pick the earliest first occurrence (ties keep the original)
    val shifts = cyclicShifts(t)
    if (shifts.nonEmpty) {
      var bestT = t; var bestSc = sc; var bestScore = score
      for (s <- shifts) {
        val ssc = Mdl.scan(s, lines, maxSpan)
        if (ssc.recordCount > 0) {
          val sscore = Mdl.score(s, ssc)
          if (sscore <= bestScore * 1.02 && ssc.firstStart < bestSc.firstStart) {
            bestT = s; bestSc = ssc; bestScore = sscore
          }
        }
      }
      t = bestT; sc = bestSc; score = bestScore
    }
    (t, sc, score)
  }
}
