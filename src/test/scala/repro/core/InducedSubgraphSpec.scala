package repro.core

import scala.util.Random

import repro.{SparkSpec, TestGraphs}
import repro.core.CmpOp._
import repro.hypotheses.Catalog
import repro.sampling._

/** Oracle for extraction on a sample: evaluating H on S inside G must give
  * exactly what evaluating H on S, materialised as a graph of its own, gives
  * (paper §3.2.1: S is the subgraph induced by the sampled nodes, or the
  * sampled edges and their endpoints for edge samplers). The materialised
  * graph is built here straight through the `LocalGraph` constructor, so the
  * check does not go through the sample-local extraction it tests.
  */
class InducedSubgraphSpec extends SparkSpec {

  /** S as a standalone graph. Nodes keep their ascending index order and
    * each node keeps its half-edges in G's CSR order, so the DFS on it
    * enumerates paths in the order the evaluator uses on S.
    */
  private def induced(g: LocalGraph, s: SampledGraph): LocalGraph = {
    val keep = s.nodeIdx.distinct.sorted
    val newIdx = Array.fill(g.numNodes)(-1)
    keep.indices.foreach(i => newIdx(keep(i)) = i)
    val edgeOk: Int => Boolean = s.edgeIdx match {
      case Some(es) => es.toSet
      case None     => _ => true
    }
    val edges = (0 until g.numEdges).filter(e =>
      newIdx(g.edgeSrc(e)) >= 0 && newIdx(g.edgeDst(e)) >= 0 && edgeOk(e)).toArray
    val newEdge = edges.indices.map(i => edges(i) -> i).toMap
    val halves = keep.map(v => (g.adjOff(v) until g.adjOff(v + 1)).filter(h => newEdge.contains(g.adjEdge(h))))
    val off = halves.scanLeft(0)(_ + _.length)
    val flat = halves.flatten
    new LocalGraph(
      keep.map(g.ids), g.ntypes, keep.map(g.ntypeOf), keep.map(g.nodeAttrs),
      g.etypes, edges.map(e => newIdx(g.edgeSrc(e))), edges.map(e => newIdx(g.edgeDst(e))),
      edges.map(g.etypeOf), edges.map(g.edgeAttrs),
      off, flat.map(h => newIdx(g.adjNbr(h))).toArray, flat.map(h => newEdge(g.adjEdge(h))).toArray,
      flat.map(g.adjFwd).toArray)
  }

  private def assertSame(onS: EvalResult, onInduced: EvalResult, what: String): Unit = {
    assert(onS.nRelevant == onInduced.nRelevant, s"$what: nRelevant")
    assert(onS.values.length == onInduced.values.length, s"$what: values length")
    onS.values.indices.foreach { i =>
      assert(java.lang.Double.doubleToRawLongBits(onS.values(i)) ==
        java.lang.Double.doubleToRawLongBits(onInduced.values(i)), s"$what: values($i)")
    }
    assert(onS.estimate == onInduced.estimate, s"$what: estimate")
    assert(onS.decision == onInduced.decision, s"$what: decision")
  }

  /** Catalog hypotheses plus a copy of the first one whose target is absent. */
  private def hypotheses(ds: String): Seq[Hypothesis] = {
    val all = Catalog.all(ds).all ++ (if (ds == "DBLP") Catalog.dblpLongPaths else Nil)
    all :+ all.head.copy(name = all.head.name + "-absent", target = NodeAttrTarget(0, "no_such_attr"))
  }

  private def samplers(h: Hypothesis): Seq[Sampler] =
    Seq(RandomNodeSampler(), DegreeBasedSampler(), RandomEdgeSampler(), PhaseSampler(h))

  for ((ds, graph) <- Seq("MovieLens" -> (() => TestGraphs.mlSmallLocal),
                          "DBLP" -> (() => TestGraphs.dblpSmallLocal),
                          "Yelp" -> (() => TestGraphs.yelpSmallLocal))) {
    test(s"$ds: evaluation on S equals evaluation on S's own graph") {
      val g = graph()
      for (h <- hypotheses(ds); sampler <- samplers(h); (frac, seed) <- Seq(0.05 -> 1L, 0.3 -> 2L)) {
        val s = sampler.sample(g, math.max(1, (frac * g.numNodes).toInt), new Random(seed))
        assertSame(LocalEvaluator.evaluate(g, h, Some(s)), LocalEvaluator.evaluate(induced(g, s), h),
          s"$ds ${h.name} ${sampler.name} frac=$frac")
      }
    }
    test(s"$ds: labels equal a fresh per-node matches pass") {
      val g = graph()
      for (h <- hypotheses(ds); (m, k) <- h.path.modifiers.zipWithIndex) {
        val lab = g.labels(h.path)(k)
        assert(lab.indices.forall(i => lab(i) == g.matches(i, m)), s"${h.name} position $k")
      }
    }
  }

  test("tiny: coauthor paths on every node subset equal those of the induced graph") {
    val g = TestGraphs.tinyLocal
    val coauthor = Hypothesis("co",
      PathSpec(Vector(Modifier("author"), Modifier("paper"), Modifier("author")),
        Vector(PathStep("Authorship", reversed = true), PathStep("Authorship"))),
      NodeAttrTarget(1, "citation"), Agg.Avg, Gt, 40)
    for (mask <- 1 until (1 << g.numNodes)) {
      val s = SampledGraph((0 until g.numNodes).filter(i => (mask >> i & 1) == 1).reverse.toArray)
      assertSame(LocalEvaluator.evaluate(g, coauthor, Some(s)), LocalEvaluator.evaluate(induced(g, s), coauthor),
        s"mask=$mask")
    }
  }
}
