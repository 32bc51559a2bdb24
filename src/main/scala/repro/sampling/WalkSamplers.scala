package repro.sampling

import scala.util.Random

import repro.core.{LocalGraph, SampledGraph, Sampler}
import SamplerUtil._

/** The stall-and-teleport loop of SRW, NBRW, RWR and MHRW. The walk starts
  * on a uniform node and adds every node it lands on; each newly visited
  * node costs one budget unit. It teleports to a fresh uniform node after
  * more than `stallLimit` steps without a new node, and whenever it stands
  * on a zero-degree node.
  */
sealed abstract class TeleportingWalk extends Sampler {
  protected def stallLimit: Int = 200

  /** The walk's next node from `v` (degree > 0), given the node it came from
    * (`prev`, -1 right after a teleport) and the node it last teleported to
    * (`seed`).
    */
  protected def step(g: LocalGraph, v: Int, prev: Int, seed: Int, rng: Random): Int

  final def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph = {
    val picked = new NodeBudget(math.min(budget, g.numNodes))
    var seed = uniformNode(g, rng)
    var v = seed
    var prev = -1
    picked.add(v)
    var steps = 0
    val cap = stepCap(budget)
    var sinceProgress = 0
    while (!picked.isFull && steps < cap) {
      val isolated = g.degree(v) == 0
      if (!isolated) {
        val u = step(g, v, prev, seed, rng)
        prev = v
        v = u
        val before = picked.size
        picked.add(v)
        sinceProgress = if (picked.size > before) 0 else sinceProgress + 1
      }
      if (isolated || sinceProgress > stallLimit) {
        seed = uniformNode(g, rng); v = seed; prev = -1; picked.add(v); sinceProgress = 0
      }
      steps += 1
    }
    SampledGraph(picked.toArray)
  }
}

/** Simple Random Walk (SRW) [Gjoka et al. 2010]: uniform-neighbor walk. */
final case class SimpleRandomWalk() extends TeleportingWalk {
  val name = "SRW"
  protected def step(g: LocalGraph, v: Int, prev: Int, seed: Int, rng: Random): Int =
    uniformNeighbor(g, v, rng)
}

/** Non-Backtracking Random Walk (NBRW) [Lee et al. 2012]: like SRW but never
  * returns to the immediately previous node when the current node has any
  * other neighbor.
  */
final case class NonBacktrackingRandomWalk() extends TeleportingWalk {
  val name = "NBRW"
  protected def step(g: LocalGraph, v: Int, prev: Int, seed: Int, rng: Random): Int = {
    var u = uniformNeighbor(g, v, rng)
    if (u == prev && g.degree(v) > 1) {
      // Redraw among the d-1 non-backtracking half-edges.
      var tries = 0
      while (u == prev && tries < 16) { u = uniformNeighbor(g, v, rng); tries += 1 }
    }
    u
  }
}

/** Random Walk with Restart (RWR): SRW that jumps back to its seed with
  * probability `restartProb` at every step; a teleport picks a fresh seed.
  */
final case class RandomWalkWithRestart(restartProb: Double = 0.15) extends TeleportingWalk {
  val name = "RWR"
  protected def step(g: LocalGraph, v: Int, prev: Int, seed: Int, rng: Random): Int =
    if (rng.nextDouble() < restartProb) seed else uniformNeighbor(g, v, rng)
}

/** Metropolis-Hastings Random Walk (MHRW) [Hübler et al. 2008]: proposes a
  * uniform neighbor u of v and accepts with min(1, deg(v)/deg(u)), making the
  * stationary distribution uniform over nodes.
  */
final case class MetropolisHastingsRandomWalk() extends TeleportingWalk {
  val name = "MHRW"
  override protected def stallLimit: Int = 400
  protected def step(g: LocalGraph, v: Int, prev: Int, seed: Int, rng: Random): Int = {
    val u = uniformNeighbor(g, v, rng)
    if (rng.nextDouble() < g.degree(v).toDouble / g.degree(u).toDouble) u else v
  }
}

/** Frontier Sampler (FrontierS) [Ribeiro & Towsley 2010]: m dependent walkers;
  * each step picks the walker to advance with probability ∝ its current
  * node's degree, then moves it to a uniform neighbor. PHASE (Algorithm 1)
  * is this sampler plus the two hypothesis-aware weight functions.
  */
final case class FrontierSampler(m: Int = 50) extends Sampler {
  val name = "FrontierS"
  def sample(g: LocalGraph, budget: Int, rng: Random): SampledGraph = {
    val b = math.min(budget, g.numNodes)
    val walkers = Array.fill(math.min(m, math.max(1, b)))(uniformNode(g, rng))
    val picked = new NodeBudget(b)
    walkers.foreach(picked.add)
    var steps = 0
    val cap = stepCap(budget)
    val w = new Array[Double](walkers.length)
    while (!picked.isFull && steps < cap) {
      var allIsolated = true
      var i = 0
      while (i < walkers.length) {
        w(i) = g.degree(walkers(i)).toDouble
        if (w(i) > 0) allIsolated = false
        i += 1
      }
      if (allIsolated) {
        // No walker can move (all stand on zero-degree nodes): all teleport.
        i = 0
        while (i < walkers.length) { walkers(i) = uniformNode(g, rng); picked.add(walkers(i)); i += 1 }
      } else {
        val k = weightedIndex(w, walkers.length, rng)
        val u = uniformNeighbor(g, walkers(k), rng)
        walkers(k) = u
        picked.add(u)
      }
      steps += 1
    }
    SampledGraph(picked.toArray)
  }
}
