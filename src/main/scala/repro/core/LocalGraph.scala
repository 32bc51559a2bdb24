package repro.core

import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row}

/** A compact driver-side mirror of an [[AttributedGraph]].
  *
  * Random-walk samplers (paper §3) are inherently sequential — one budget
  * unit advances one walker — so they run on this collected CSR rather than
  * on cluster dataflow. All evaluation graphs in this repo fit a single
  * driver comfortably (see DESIGN.md §3).
  *
  * The adjacency is the *undirected expansion*: each directed edge (u,v,r)
  * contributes a forward half-edge at u and a reverse half-edge at v (the
  * paper's implicit inverse relation r^-1).
  */
final class LocalGraph(
    val ids: Array[Long],                    // internal idx -> external id
    val ntypes: Array[String],               // interned node type table
    val ntypeOf: Array[Int],                 // internal idx -> ntypes index
    val nodeAttrs: Array[Map[String, Any]],
    val etypes: Array[String],               // interned edge type table
    val edgeSrc: Array[Int],
    val edgeDst: Array[Int],
    val etypeOf: Array[Int],                 // edge idx -> etypes index
    val edgeAttrs: Array[Map[String, Any]],
    val adjOff: Array[Int],                  // CSR offsets, length n+1
    val adjNbr: Array[Int],                  // neighbor internal idx
    val adjEdge: Array[Int],                 // underlying edge idx
    val adjFwd: Array[Boolean]) {            // true: half-edge follows stored direction

  val numNodes: Int = ids.length
  val numEdges: Int = edgeSrc.length

  private val idToIdx: java.util.HashMap[Long, Integer] = LocalGraph.indexIds(ids)

  /** Internal index of an external node id (-1 if absent). */
  def indexOf(id: Long): Int = {
    val v = idToIdx.get(id)
    if (v == null) -1 else v.intValue()
  }

  def degree(i: Int): Int = adjOff(i + 1) - adjOff(i)

  def nodeType(i: Int): String = ntypes(ntypeOf(i))
  def edgeType(e: Int): String = etypes(etypeOf(e))

  /** True iff node `i` satisfies modifier `m`. */
  def matches(i: Int, m: Modifier): Boolean =
    m.matches(nodeType(i), nodeAttrs(i))

  private val modifierLabels = new ConcurrentHashMap[Modifier, Array[Boolean]]()
  private val plans = new ConcurrentHashMap[PathSpec, PathPlan]()

  /** Match bitmap of one modifier over all nodes, computed once per modifier
    * in O(|V|) and shared by every path that uses it.
    */
  private def modifierLabel(m: Modifier): Array[Boolean] =
    modifierLabels.computeIfAbsent(m, _ => Array.tabulate(numNodes)(matches(_, m)))

  /** The compiled [[PathPlan]] of `path` on this graph. The first call per
    * path builds it; later calls (every sampler run, every evaluation) are a
    * hash lookup, so no hypothesis test pays an O(|V|) labelling pass.
    */
  def plan(path: PathSpec): PathPlan =
    plans.computeIfAbsent(path, p => new PathPlan(this,
      p.modifiers.iterator.map(modifierLabel).toArray,
      p.steps.iterator.map(s => etypes.indexOf(s.etype)).toArray,
      p.steps.iterator.map(!_.reversed).toArray))

  /** Per-position match bitmap for every modifier on a path: `plan(path)`'s
    * bitmaps, so samplers and evaluators pay O(1) per membership test and
    * nothing per call once the plan exists. The arrays are shared; callers
    * must not write to them.
    */
  def labels(path: PathSpec): Array[Array[Boolean]] = plan(path).labels

  /** Half-edge `half` realises a path step: it lies on an edge of type
    * `etypeIdx` and follows the stored direction iff `fwd` (a step declared
    * `reversed` has `fwd = false`). An `etypeIdx` of -1 matches nothing.
    */
  def halfEdgeMatches(half: Int, etypeIdx: Int, fwd: Boolean): Boolean =
    etypeOf(adjEdge(half)) == etypeIdx && adjFwd(half) == fwd

  def etypeIndex(name: String): Int = {
    val k = etypes.indexOf(name)
    require(k >= 0, s"unknown edge type '$name' (have ${etypes.mkString(",")})")
    k
  }
}

object LocalGraph {
  /** External id -> internal index. Rejects a repeated id: it would leave
    * the earlier node unreachable by id and orphan it from every edge.
    */
  private def indexIds(ids: Array[Long]): java.util.HashMap[Long, Integer] = {
    val m = new java.util.HashMap[Long, Integer](ids.length * 2)
    var i = 0
    while (i < ids.length) {
      val prev = m.put(ids(i), i)
      require(prev == null, s"duplicate node id ${ids(i)} (rows ${prev} and $i)")
      i += 1
    }
    m
  }

  /** Collect an [[AttributedGraph]] to the driver. Attribute columns are all
    * columns other than the structural ones; nulls are dropped from the maps.
    */
  def fromAttributed(g: AttributedGraph): LocalGraph = {
    val nodes = collect(g.nodes, "ntype", Set("id", "ntype"))
    val n = nodes.rows.length
    val idCol = g.nodes.columns.indexOf("id")
    val ids = nodes.rows.map(_.getLong(idCol))
    val idToIdx = indexIds(ids)

    val edges = collect(g.edges, "etype", Set("src", "dst", "etype"))
    val mEdges = edges.rows.length
    val eSrc = new Array[Int](mEdges)
    val eDst = new Array[Int](mEdges)
    val sCol = g.edges.columns.indexOf("src")
    val dCol = g.edges.columns.indexOf("dst")
    var i = 0
    while (i < mEdges) {
      val r = edges.rows(i)
      val s = idToIdx.get(r.getLong(sCol)); val d = idToIdx.get(r.getLong(dCol))
      require(s != null && d != null,
        s"edge references unknown node: ${r.getLong(sCol)} -> ${r.getLong(dCol)}")
      eSrc(i) = s.intValue(); eDst(i) = d.intValue()
      i += 1
    }

    // Undirected-expansion CSR: two half-edges per directed edge.
    val deg = new Array[Int](n)
    i = 0
    while (i < mEdges) { deg(eSrc(i)) += 1; deg(eDst(i)) += 1; i += 1 }
    val off = new Array[Int](n + 1)
    i = 0
    while (i < n) { off(i + 1) = off(i) + deg(i); i += 1 }
    val cur = java.util.Arrays.copyOf(off, n)
    val nbr = new Array[Int](2 * mEdges)
    val edg = new Array[Int](2 * mEdges)
    val fwd = new Array[Boolean](2 * mEdges)
    i = 0
    while (i < mEdges) {
      val s = eSrc(i); val d = eDst(i)
      nbr(cur(s)) = d; edg(cur(s)) = i; fwd(cur(s)) = true;  cur(s) += 1
      nbr(cur(d)) = s; edg(cur(d)) = i; fwd(cur(d)) = false; cur(d) += 1
      i += 1
    }

    new LocalGraph(ids, nodes.types, nodes.typeOf, nodes.attrs,
      edges.types, eSrc, eDst, edges.typeOf, edges.attrs, off, nbr, edg, fwd)
  }

  /** One collected table: its rows, each row's type interned in order of
    * first appearance (`types(typeOf(i))` is row i's `typeCol`), and each
    * row's attribute map over the columns outside `structural`, null cells
    * dropped.
    */
  private final case class Collected(rows: Array[Row], types: Array[String],
      typeOf: Array[Int], attrs: Array[Map[String, Any]])

  private def collect(df: DataFrame, typeCol: String, structural: Set[String]): Collected = {
    val cols = df.columns
    val tCol = cols.indexOf(typeCol)
    val attrCols = cols.indices.filterNot(c => structural(cols(c))).toArray
    val rows = df.collect()
    val table = mutable.LinkedHashMap.empty[String, Int]
    val typeOf = new Array[Int](rows.length)
    val attrs = new Array[Map[String, Any]](rows.length)
    var i = 0
    while (i < rows.length) {
      val r = rows(i)
      typeOf(i) = table.getOrElseUpdate(r.getString(tCol), table.size)
      val m = Map.newBuilder[String, Any]
      var k = 0
      while (k < attrCols.length) {
        val v = r.get(attrCols(k))
        if (v != null) m += cols(attrCols(k)) -> v
        k += 1
      }
      attrs(i) = m.result()
      i += 1
    }
    Collected(rows, table.keys.toArray, typeOf, attrs)
  }
}

/** A [[PathSpec]] compiled against one [[LocalGraph]] (see
  * [[LocalGraph.plan]]): everything samplers and the evaluator need to test
  * a node or half-edge against the path in O(1).
  *
  * @param labels    `labels(k)(i)`: node i satisfies modifier M_k
  * @param stepEtype `etypes` index of step j's edge type; -1 when the graph
  *                  has no edge of that type, so step j matches nothing
  * @param stepFwd   step j follows the stored edge direction
  */
final class PathPlan private[core] (
    g: LocalGraph,
    val labels: Array[Array[Boolean]],
    val stepEtype: Array[Int],
    val stepFwd: Array[Boolean]) {

  /** Path length l (number of steps). */
  def length: Int = stepEtype.length

  /** True iff half-edge `half` realises step j's edge type and direction. */
  def stepMatches(j: Int, half: Int): Boolean =
    g.halfEdgeMatches(half, stepEtype(j), stepFwd(j))
}

/** A sampled graph S: a set of node indices plus, for edge samplers, the
  * explicitly sampled edge indices. When `edgeIdx` is None, S is the induced
  * subgraph on `nodeIdx` (paper §3.2.1, last paragraph).
  */
final case class SampledGraph(nodeIdx: Array[Int], edgeIdx: Option[Array[Int]] = None) {
  def size: Int = nodeIdx.length
  lazy val nodeSet: java.util.BitSet = {
    val b = new java.util.BitSet()
    nodeIdx.foreach(b.set)
    b
  }
  def contains(i: Int): Boolean = nodeSet.get(i)
}
