package repro.core

/** The evaluation step with every scan on the calling thread, one after
  * another: the reference that [[Datamaran.evaluateBest]] and
  * [[Refine.refine]], which scan in parallel, must equal result for result.
  * Here the guards sit inside `refine`, which knows the best score so far
  * only through `skipIfAbove`.
  */
object SerialEvaluation {

  def refine(
      t0: Template,
      lines: IndexedSeq[String],
      maxSpan: Int,
      minCoverage: Double,
      skipIfAbove: Double
  ): Refine.Scored = {
    var t = t0
    var sc = Mdl.scan(t, lines, maxSpan)
    var score = Mdl.score(t, sc)
    if (sc.coverage < minCoverage || score > skipIfAbove) return (t, sc, score)
    var improved = true
    var rounds = 0
    while (improved && rounds < 5) {
      improved = false
      rounds += 1
      val cands = Refine.unfoldCandidates(t, sc.arrays.map(_.counts))
      var best: Option[Refine.Scored] = None
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
    val shifts = Refine.cyclicShifts(t)
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

  def evaluateBest(
      top: Vector[TemplateStat],
      lines: IndexedSeq[String],
      p: DmParams,
      noiseDl: Double
  ): Option[Refine.Scored] = {
    var bestSoFar = Double.MaxValue
    val evaluated = top.flatMap { s =>
      val (t, sc, score) = refine(s.template, lines, p.maxSpan, p.alpha, bestSoFar * 1.6)
      if (score < bestSoFar) bestSoFar = score
      if (sc.recordCount == 0) None
      else Some((t, sc, score))
    }
    if (evaluated.isEmpty) None
    else {
      val minScore = evaluated.map(_._3).min
      val cut = minScore + Datamaran.MdlTieBand * math.max(1.0, noiseDl - minScore)
      val band = evaluated.filter(_._3 <= cut)
      Some(band.minBy { case (t, sc, score) =>
        (-sc.recordCount, sc.firstStart, score, t.encodedLength)
      })
    }
  }
}
