package repro.core

/** Outcome of evaluating a hypothesis on a graph (full G or sampled S).
  *
  * `estimate` is the aggregated value (None when no relevant path carries a
  * usable f value — e.g. the sampler missed every relevant path, which the
  * paper's accuracy metric counts as a miss); `nRelevant` counts relevant
  * path instances; `values` are the per-path f values (the t-test inputs).
  */
final case class EvalResult(
    estimate: Option[Double],
    nRelevant: Long,
    decision: Option[Boolean],
    values: Array[Double])

/** Driver-side hypothesis evaluator: enumerates relevant path instances by
  * typed DFS over a [[LocalGraph]] (all of G, or a sample S) and aggregates
  * `f_P`.
  *
  * Semantics (verified equal to [[SparkEvaluator]] in tests):
  *  - a path instance binds one node per position; node i must satisfy M_i;
  *  - step j must use an edge of the declared type in the declared direction;
  *  - instances are simple (pairwise-distinct nodes), so a co-authorship
  *    path author→paper→author never degenerates to the same author twice;
  *  - paths whose target attribute is absent/non-numeric are counted as
  *    relevant but contribute no value.
  *
  * Cost: extraction reads only S's nodes and their adjacency, so one test
  * costs O(|S| log |S| + l · Σ_{v∈S} deg v) plus the number of emitted
  * paths, independent of |V|; the per-position labels come from the graph's
  * cached [[PathPlan]]. Ground truth on G is the case S = V.
  */
object LocalEvaluator {

  /** All f values over relevant path instances of S (of G when `sample` is
    * None), plus the instance count.
    *
    * S is sorted once. For each step j a filtered CSR over S keeps, per node
    * and in CSR order, only the half-edges that realise step j, start at an
    * M_j node, end at an M_{j+1} node of S, and use a sampled edge (when S
    * is an edge sample). The DFS walks only those lists, starting from S's
    * M_0 nodes in ascending index order, so `values` comes out in the same
    * order whichever S is given.
    */
  def extract(g: LocalGraph, h: Hypothesis, sample: Option[SampledGraph] = None): (Array[Double], Long) = {
    val plan = g.plan(h.path)
    val lab = plan.labels
    val l = plan.length
    // S's nodes ascending; a node's position here is its rank.
    val nodes = sample.fold(Array.range(0, g.numNodes))(s => sortedDistinct(s.nodeIdx))
    val k = nodes.length
    val inS: java.util.BitSet = sample.map(_.nodeSet).orNull // null: S = V
    val edgeOk: java.util.BitSet = sample.flatMap(_.edgeIdx).map { es =>
      val b = new java.util.BitSet(); es.foreach(b.set); b
    }.orNull // null: every edge between nodes of S

    def rankOf(u: Int): Int =
      if (inS == null) u
      else if (inS.get(u)) java.util.Arrays.binarySearch(nodes, u)
      else -1

    // Step j's filtered CSR: for the node of rank r, entries off(j)(r) until
    // off(j)(r + 1) of far(j) (far end's rank) and via(j) (edge index).
    val off = new Array[Array[Int]](l)
    val far = new Array[Array[Int]](l)
    val via = new Array[Array[Int]](l)
    var j = 0
    while (j < l) {
      val near = lab(j)
      val next = lab(j + 1)
      var cap = 0
      var r = 0
      while (r < k) { if (near(nodes(r))) cap += g.degree(nodes(r)); r += 1 }
      val o = new Array[Int](k + 1)
      val f = new Array[Int](cap)
      val e = new Array[Int](cap)
      var n = 0
      r = 0
      while (r < k) {
        val v = nodes(r)
        if (near(v)) {
          var half = g.adjOff(v)
          val end = g.adjOff(v + 1)
          while (half < end) {
            val u = g.adjNbr(half)
            if (plan.stepMatches(j, half) && next(u)) {
              val ru = rankOf(u)
              val edge = g.adjEdge(half)
              if (ru >= 0 && (edgeOk == null || edgeOk.get(edge))) {
                f(n) = ru; e(n) = edge; n += 1
              }
            }
            half += 1
          }
        }
        o(r + 1) = n
        r += 1
      }
      off(j) = o; far(j) = f; via(j) = e
      j += 1
    }

    val values = java.util.stream.DoubleStream.builder()
    var nPaths = 0L
    val chain = new Array[Int](l + 1) // ranks
    val chainEdges = new Array[Int](math.max(l, 1))

    def emit(): Unit = h.target match {
      case NodeAttrTarget(p, attr) => addNum(values, g.nodeAttrs(nodes(chain(p))).getOrElse(attr, null))
      case EdgeAttrTarget(s, attr) => addNum(values, g.edgeAttrs(chainEdges(s)).getOrElse(attr, null))
      case UnitTarget              => values.add(1.0)
    }

    def dfs(pos: Int): Unit = {
      if (pos == l) {
        nPaths += 1
        emit()
      } else {
        val o = off(pos)
        val f = far(pos)
        var i = o(chain(pos))
        val end = o(chain(pos) + 1)
        while (i < end) {
          val u = f(i)
          var dup = false
          var q = 0
          while (q <= pos && !dup) { if (chain(q) == u) dup = true; q += 1 }
          if (!dup) {
            chain(pos + 1) = u
            chainEdges(pos) = via(pos)(i)
            dfs(pos + 1)
          }
          i += 1
        }
      }
    }

    var r = 0
    while (r < k) {
      if (lab(0)(nodes(r))) {
        chain(0) = r
        dfs(0)
      }
      r += 1
    }
    (values.build().toArray, nPaths)
  }

  private def sortedDistinct(a: Array[Int]): Array[Int] = {
    val s = a.clone()
    java.util.Arrays.sort(s)
    var n = 0
    var i = 0
    while (i < s.length) {
      if (n == 0 || s(n - 1) != s(i)) { s(n) = s(i); n += 1 }
      i += 1
    }
    if (n == s.length) s else java.util.Arrays.copyOf(s, n)
  }

  /** Appends the numeric view of attribute value `v`, if it has one. Spark's
    * double columns hold `java.lang.Double`, which is read without
    * allocating; other numeric types take [[Attr.num]].
    */
  private def addNum(values: java.util.stream.DoubleStream.Builder, v: Any): Unit = v match {
    case d: Double => values.add(d)
    case null      =>
    case x         => Attr.num(x).foreach(values.add)
  }

  /** Apply the hypothesis aggregate to extracted values. */
  def aggregate(h: Hypothesis, values: Array[Double], nPaths: Long): Option[Double] = h.agg match {
    case Agg.Count => Some(nPaths.toDouble)
    case _ if values.isEmpty => None
    case Agg.Avg => Some(Stats.sum(values) / values.length)
    case Agg.Sum => Some(Stats.sum(values))
    case Agg.Min => Some(values.min)
    case Agg.Max => Some(values.max)
  }

  /** Full evaluation: extraction + aggregation + decision. */
  def evaluate(g: LocalGraph, h: Hypothesis, sample: Option[SampledGraph] = None): EvalResult = {
    val (values, nPaths) = extract(g, h, sample)
    val est = aggregate(h, values, nPaths)
    EvalResult(est, nPaths, est.map(h.decide), values)
  }
}
