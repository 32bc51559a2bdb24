package repro.sampling

import scala.util.Random

import repro.{SparkSpec, TestGraphs}
import repro.core._
import repro.hypotheses.Catalog

/** Invariants every sampler must satisfy: budget, validity, determinism. */
class SamplerBasicsSpec extends SparkSpec {

  private lazy val lg = TestGraphs.dblpSmallLocal
  private val budget = 200

  private def phaseH: Hypothesis = Catalog.dblp.path.head

  private def allSamplers: Seq[Sampler] = Seq(
    RandomNodeSampler(), DegreeBasedSampler(), RandomEdgeSampler(),
    SimpleRandomWalk(), NonBacktrackingRandomWalk(), RandomWalkWithRestart(),
    MetropolisHastingsRandomWalk(), FrontierSampler(), SnowballSampler(),
    ForestFireSampler(), ShortestPathSampler(),
    PhaseSampler(phaseH), PhaseOptSampler(phaseH))

  test("13 samplers registered with the paper's names") {
    assert(allSamplers.map(_.name).toSet == Set(
      "RNS", "DBS", "RES", "SRW", "NBRW", "RWR", "MHRW", "FrontierS",
      "SBS", "FFS", "ShortestPathS", "PHASE", "PHASEopt"))
  }

  for (s <- Seq(
    RandomNodeSampler(), DegreeBasedSampler(),
    SimpleRandomWalk(), NonBacktrackingRandomWalk(), RandomWalkWithRestart(),
    MetropolisHastingsRandomWalk(), FrontierSampler(), SnowballSampler(),
    ForestFireSampler(), ShortestPathSampler(),
    PhaseSampler(phaseH), PhaseOptSampler(phaseH))) {

    test(s"${s.name}: reaches the node budget on a connected graph") {
      val out = s.sample(lg, budget, new Random(1))
      assert(out.size == budget, s"got ${out.size}")
    }
    test(s"${s.name}: sampled nodes are valid and distinct") {
      val out = s.sample(lg, budget, new Random(2))
      assert(out.nodeIdx.forall(i => i >= 0 && i < lg.numNodes))
      assert(out.nodeIdx.distinct.length == out.nodeIdx.length)
    }
    test(s"${s.name}: deterministic under a fixed seed") {
      val a = s.sample(lg, budget, new Random(3)).nodeIdx.toSeq
      val b = s.sample(lg, budget, new Random(3)).nodeIdx.toSeq
      assert(a == b)
    }
    test(s"${s.name}: different seeds explore differently") {
      val a = s.sample(lg, budget, new Random(4)).nodeIdx.toSet
      val b = s.sample(lg, budget, new Random(5)).nodeIdx.toSet
      assert(a != b)
    }
    test(s"${s.name}: budget larger than the graph caps at |V|") {
      val out = s.sample(lg, lg.numNodes + 1000, new Random(6))
      assert(out.size <= lg.numNodes)
    }
  }

  test("RES: respects an edge budget and returns endpoint nodes") {
    val out = RandomEdgeSampler().sample(lg, budget, new Random(1))
    val es = out.edgeIdx.get
    assert(es.length == budget)
    assert(es.distinct.length == es.length)
    assert(es.forall(e => e >= 0 && e < lg.numEdges))
    val endpoints = es.flatMap(e => Seq(lg.edgeSrc(e), lg.edgeDst(e))).toSet
    assert(out.nodeIdx.toSet == endpoints)
  }
  test("RES: deterministic under a fixed seed") {
    val a = RandomEdgeSampler().sample(lg, budget, new Random(3))
    val b = RandomEdgeSampler().sample(lg, budget, new Random(3))
    assert(a.edgeIdx.get.toSeq == b.edgeIdx.get.toSeq)
  }
  test("RES: edge budget larger than |E| caps") {
    val out = RandomEdgeSampler().sample(lg, lg.numEdges + 10, new Random(1))
    assert(out.edgeIdx.get.length == lg.numEdges)
  }

  // Arrays.hashCode of (nodeIdx in visit order, edgeIdx or 0) at budget 200,
  // seeds 1 and 2. Any change to a sampler's RNG draw order changes these.
  private val fingerprints: Map[String, Seq[(Int, Int)]] = Map(
    "RNS" -> Seq((-1777894677, 0), (-1010454514, 0)),
    "DBS" -> Seq((-1315234386, 0), (1175233326, 0)),
    "RES" -> Seq((2145587761, 872350097), (-809765514, 935180039)),
    "SRW" -> Seq((-2890724, 0), (-1052281351, 0)),
    "NBRW" -> Seq((1700361070, 0), (1926247129, 0)),
    "RWR" -> Seq((1675057022, 0), (-31913519, 0)),
    "MHRW" -> Seq((65981395, 0), (1553782219, 0)),
    "FrontierS" -> Seq((489510201, 0), (364637464, 0)),
    "SBS" -> Seq((-92446379, 0), (-1086278899, 0)),
    "FFS" -> Seq((1717924964, 0), (-1794796783, 0)),
    "ShortestPathS" -> Seq((1367877109, 0), (1839933939, 0)),
    "PHASE" -> Seq((321911085, 0), (-1932250464, 0)),
    "PHASEopt" -> Seq((1012767867, 0), (-403943274, 0)))

  for (s <- allSamplers) {
    test(s"${s.name}: sample fingerprint is pinned") {
      val got = Seq(1, 2).map { seed =>
        val out = s.sample(lg, budget, new Random(seed))
        (java.util.Arrays.hashCode(out.nodeIdx), out.edgeIdx.fold(0)(java.util.Arrays.hashCode))
      }
      assert(got == fingerprints(s.name))
    }
  }

  test("walk samplers work from every start on the tiny graph") {
    val tiny = TestGraphs.tinyLocal
    for (s <- allSamplers) {
      val out = s.sample(tiny, 5, new Random(11))
      assert(out.size > 0, s.name)
    }
  }
  test("samplers fill the budget on a graph with a zero-degree node") {
    val t = TestGraphs.tinyLocal
    val g = new LocalGraph(t.ids :+ 99L, t.ntypes, t.ntypeOf :+ 0, t.nodeAttrs :+ Map.empty[String, Any],
      t.etypes, t.edgeSrc, t.edgeDst, t.etypeOf, t.edgeAttrs, t.adjOff :+ t.adjOff.last,
      t.adjNbr, t.adjEdge, t.adjFwd)
    val budget = t.numNodes
    // With m = 1 the lone FrontierS walker sometimes starts on the isolated node.
    for (s <- allSamplers :+ FrontierSampler(m = 1); seed <- 1 to 20) {
      val out = s.sample(g, budget, new Random(seed))
      assert(out.nodeIdx.forall(i => i >= 0 && i < g.numNodes), s"${s.name} seed $seed")
      assert(out.nodeIdx.distinct.length == out.size, s"${s.name} seed $seed")
      val filled = out.edgeIdx.fold(out.size)(_.length)
      assert(filled == budget, s"${s.name} seed $seed: $filled of $budget")
    }
  }
  test("budget of 1 yields a single node") {
    for (s <- Seq(RandomNodeSampler(), SimpleRandomWalk(), PhaseOptSampler(phaseH))) {
      assert(s.sample(lg, 1, new Random(8)).size == 1, s.name)
    }
  }
}
