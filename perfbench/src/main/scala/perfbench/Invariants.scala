package perfbench

import repro.core.{EvalResult, LocalGraph, SampledGraph, Stats}

/** Per-operation correctness invariants. A violated invariant makes the
  * operation count as failed (the `failed` / `ok_rate` figures).
  */
object Invariants {

  /** Budget units S consumed: sampled edges for edge samplers, else nodes
    * (paper §2.3: one node or one edge costs one unit).
    */
  def cost(s: SampledGraph): Int = s.edgeIdx.fold(s.size)(_.length)

  /** The most S can cost on `g`: edge samples are capped by |E|, node samples by |V|. */
  def capacity(g: LocalGraph, s: SampledGraph, budget: Int): Int =
    math.min(budget, if (s.edgeIdx.isDefined) g.numEdges else g.numNodes)

  /** Violations of one operation's invariants; empty when it is correct. */
  def check(g: LocalGraph, budget: Int, s: SampledGraph, r: EvalResult,
            t: Option[Stats.TTest]): Seq[String] = {
    val errs = Seq.newBuilder[String]
    if (cost(s) > budget) errs += s"|S| = ${cost(s)} exceeds budget $budget"
    distinctInRange(s.nodeIdx, g.numNodes, "node").foreach(errs += _)
    s.edgeIdx.foreach(es => distinctInRange(es, g.numEdges, "edge").foreach(errs += _))
    if (r.estimate.isDefined != r.decision.isDefined)
      errs += s"estimate ${r.estimate} but decision ${r.decision}"
    t.foreach { tt =>
      if (!(tt.pValue >= 0 && tt.pValue <= 1)) errs += s"p-value ${tt.pValue} outside [0, 1]"
      if (!(tt.ciLow <= tt.mean && tt.mean <= tt.ciHigh))
        errs += s"CI [${tt.ciLow}, ${tt.ciHigh}] misses the sample mean ${tt.mean}"
    }
    errs.result()
  }

  private def distinctInRange(idx: Array[Int], n: Int, what: String): Option[String] = {
    val seen = new java.util.BitSet(n)
    var i = 0
    while (i < idx.length) {
      val v = idx(i)
      if (v < 0 || v >= n) return Some(s"$what index $v outside [0, $n)")
      if (seen.get(v)) return Some(s"$what index $v sampled twice")
      seen.set(v)
      i += 1
    }
    None
  }
}
