package perfbench

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{EvalResult, LocalGraph, SampledGraph, Stats}

class InvariantsSpec extends AnyFunSuite {

  /** Path a -> b -> c -> d, one edge type, no attributes. */
  private val g: LocalGraph = {
    val src = Array(0, 1, 2)
    val dst = Array(1, 2, 3)
    // Undirected-expansion CSR: node i's half-edges, in edge order.
    val off = Array(0, 1, 3, 5, 6)
    val nbr = Array(1, 0, 2, 1, 3, 2)
    val edg = Array(0, 0, 1, 1, 2, 2)
    val fwd = Array(true, false, true, false, true, false)
    new LocalGraph(Array(10L, 11L, 12L, 13L), Array("n"), Array(0, 0, 0, 0),
      Array.fill(4)(Map.empty[String, Any]), Array("e"), src, dst, Array(0, 0, 0),
      Array.fill(3)(Map.empty[String, Any]), off, nbr, edg, fwd)
  }

  private val result = EvalResult(Some(2.0), 2, Some(true), Array(1.0, 3.0))
  private val ttest = Stats.tTest(result.values, 1.0, repro.core.CmpOp.Gt)

  private def errors(s: SampledGraph, budget: Int = 3, r: EvalResult = result,
                     t: Option[Stats.TTest] = Some(ttest)): Seq[String] =
    Invariants.check(g, budget, s, r, t)

  test("a well-formed operation passes") {
    assert(errors(SampledGraph(Array(0, 2, 3))).isEmpty)
    assert(errors(SampledGraph(Array(0, 1, 2, 3), Some(Array(0, 2)))).isEmpty)
    assert(errors(SampledGraph(Array(1)), r = EvalResult(None, 0, None, Array.empty), t = None).isEmpty)
  }

  test("|S| above the budget is rejected") {
    assert(errors(SampledGraph(Array(0, 1, 2, 3))).exists(_.contains("exceeds budget")))
  }

  test("edge samples are charged per sampled edge") {
    assert(Invariants.cost(SampledGraph(Array(0, 1, 2, 3), Some(Array(0, 2)))) == 2)
    assert(errors(SampledGraph(Array(0, 1, 2, 3), Some(Array(0, 1, 2))), budget = 2)
      .exists(_.contains("exceeds budget")))
  }

  test("duplicate or out-of-range indices are rejected") {
    assert(errors(SampledGraph(Array(0, 0))).exists(_.contains("sampled twice")))
    assert(errors(SampledGraph(Array(4))).exists(_.contains("outside")))
    assert(errors(SampledGraph(Array(-1))).exists(_.contains("outside")))
    assert(errors(SampledGraph(Array(0, 1), Some(Array(0, 3)))).exists(_.contains("edge index 3")))
  }

  test("an estimate without a decision is rejected") {
    assert(errors(SampledGraph(Array(0)), r = result.copy(decision = None)).exists(_.contains("decision")))
    assert(errors(SampledGraph(Array(0)), r = result.copy(estimate = None)).exists(_.contains("decision")))
  }

  test("a p-value outside [0, 1] is rejected") {
    assert(errors(SampledGraph(Array(0)), t = Some(ttest.copy(pValue = 1.5))).exists(_.contains("p-value")))
    assert(errors(SampledGraph(Array(0)), t = Some(ttest.copy(pValue = Double.NaN))).exists(_.contains("p-value")))
  }

  test("a CI that misses the sample mean is rejected") {
    assert(errors(SampledGraph(Array(0)), t = Some(ttest.copy(ciLow = ttest.mean + 1))).exists(_.contains("CI")))
  }
}
