package perfbench

import org.apache.spark.sql.SparkSession
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

import repro.core.{AttributedGraph, Hypothesis, LocalGraph, Sampler}
import repro.eval.Tables
import repro.graphgen.GraphGen
import repro.hypotheses.Catalog
import repro.sampling.PhaseSampler

/** One kind of operation: test hypothesis `h` on `dataset` with one sampler
  * at a fixed budget. Every benchmark operation is one cell plus an RNG seed.
  */
final case class Cell(dataset: String, h: Hypothesis, samplerName: String,
                      sampler: Sampler, budget: Int) {
  def kind: String = h.kind
}

/** A benchmark workload.
  *
  * `cells` lists one round of operations, a cell repeated to weight it.
  * Each round is shuffled by the run seed, and the accuracy-style figures are
  * taken over the first `prefixRounds` rounds (at most
  * [[Workloads.TracedPrefixRounds]] in traced runs, which run each operation
  * twice), so they repeat exactly for a seed however many operations fit in
  * the measured phase. `warmupRounds` rounds of a seed-independent stream
  * warm the JIT during set-up.
  */
final case class Workload(
    name: String,
    datasets: Seq[String],
    scale: Double,
    prefixRounds: Int,
    warmupRounds: Int,
    cells: Map[String, LocalGraph] => IndexedSeq[Cell])

object Workloads {

  val Datasets: Seq[String] = Seq("MovieLens", "DBLP", "Yelp")
  val TracedPrefixRounds = 20
  val Kinds: Seq[String] = Seq("node", "edge", "path")

  /** The bench-scale dataset generators at their default seeds, which the
    * `Catalog` constants are calibrated on.
    */
  def generate(spark: SparkSession, dataset: String, scale: Double): AttributedGraph =
    dataset match {
      case "MovieLens" => GraphGen.movieLens(spark, scale)
      case "DBLP"      => GraphGen.dblp(spark, scale)
      case "Yelp"      => GraphGen.yelp(spark, scale)
    }

  /** Budget for a sampling proportion in % of |V|, as `Tables` computes it. */
  def budget(pct: Double, g: LocalGraph): Int =
    math.max(1, (pct / 100.0 * g.numNodes).toInt)

  private def tableSampler(h: Hypothesis, name: String): Sampler =
    if (name == "PHASE") PhaseSampler(h) else Tables.samplersFor(h)(name)

  /** Tables 3/4: every dataset, kind, hypothesis and sampler column. */
  val grid: Workload = Workload("grid", Datasets, 1.0, prefixRounds = 1, warmupRounds = 1,
    gs => for {
      ds <- Datasets.toIndexedSeq
      kind <- Kinds
      h <- Catalog.all(ds).byKind(kind)
      s <- Tables.samplerColumns
    } yield Cell(ds, h, s, tableSampler(h, s), budget(Tables.proportions((ds, kind)), gs(ds))))

  /** Yelp path hypotheses with samplers whose samples reach hubs. */
  val YelpPathSamplers: Seq[String] = Seq("PHASEopt", "SRW", "FrontierS", "FFS")

  val yelpPath: Workload = Workload("yelp-path", Seq("Yelp"), 1.0, prefixRounds = 150, warmupRounds = 4,
    gs => for {
      h <- Catalog.yelp.path.toIndexedSeq
      s <- YelpPathSamplers
    } yield Cell("Yelp", h, s, tableSampler(h, s), budget(Tables.proportions(("Yelp", "path")), gs("Yelp"))))

  /** PHASE : PHASE_opt operation weights on `dblp-hub`. */
  val DblpHubWeights: Seq[(String, Int)] = Seq("PHASE" -> 1, "PHASEopt" -> 7)

  private def dblpFirst: IndexedSeq[Hypothesis] =
    IndexedSeq(Catalog.dblp.node.head, Catalog.dblp.edge.head, Catalog.dblp.path.head)

  val dblpHub: Workload = Workload("dblp-hub", Seq("DBLP"), 1.0, prefixRounds = 40, warmupRounds = 4,
    gs => for {
      h <- dblpFirst
      (s, w) <- DblpHubWeights
      _ <- 1 to w
    } yield Cell("DBLP", h, s, tableSampler(h, s), budget(Tables.table2ProportionPct, gs("DBLP"))))

  /** Absolute budget of the scale sweep: 2.5% of |V| at scale 1. */
  val SweepBudget = 812

  /** DBLP at `scale` with a fixed absolute budget, for the scale sweep. */
  def dblpScale(scale: Double): Workload =
    Workload("dblp-scale", Seq("DBLP"), scale, prefixRounds = 5, warmupRounds = 2,
      _ => for {
        h <- dblpFirst
        s <- Seq("RNS", "PHASEopt")
      } yield Cell("DBLP", h, s, tableSampler(h, s), SweepBudget))

  val all: Seq[Workload] = Seq(grid, yelpPath, dblpHub)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (have ${all.map(_.name).mkString(", ")})"))

  /** splitmix64 finaliser: decorrelates the per-operation seeds. */
  def mix(x: Long): Long = {
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }
}

/** The operation sequence of one run: round r is the workload's cells in an
  * order drawn from (seed, r); operation i samples with RNG seed (seed, i).
  */
final class OpStream(cells: IndexedSeq[Cell], seed: Long) {
  private val rounds = ArrayBuffer.empty[IndexedSeq[Cell]]

  def roundSize: Int = cells.length

  def cell(i: Int): Cell = {
    val r = i / cells.length
    while (rounds.length <= r)
      rounds += new Random(Workloads.mix(seed * 31 + rounds.length)).shuffle(cells)
    rounds(r)(i % cells.length)
  }

  def rngSeed(i: Int): Long = Workloads.mix(Workloads.mix(seed) + i)
}
