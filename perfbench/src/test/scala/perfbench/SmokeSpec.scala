package perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.io.File
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

import repro.hypotheses.Catalog

/** Each workload, shrunk to a tenth of bench scale and one round, runs end
  * to end and reports exactly the metrics BENCHMARK.json declares.
  */
class SmokeSpec extends AnyFunSuite {

  private val spec = new ObjectMapper().readTree(new File("BENCHMARK.json"))
  private def names(key: String): Seq[String] =
    spec.get(key).elements().asScala.map(_.get("name").asText).toSeq
  private def units(key: String): Seq[(String, String)] =
    spec.get(key).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq

  private def tinyRun(w: Workload, trace: Boolean): Report =
    new Run(w.copy(scale = 0.1, prefixRounds = 1, warmupRounds = 0),
      Opts(workload = w.name, seconds = 0, setups = 1, trace = trace,
        out = "perfbench/.build/test-out")).execute()

  for (w <- Workloads.all) test(s"${w.name}: tiny untraced pass reports every end-to-end metric") {
    val r = tinyRun(w, trace = false)
    assert(r.correct)
    assert(r.failed == 0)
    assert(r.attempted >= Quantiles.minCount(0.99))
    assert(r.metrics.map { case (k, (_, unit)) => k -> unit } == units("end_to_end"))
    val parsed = new ObjectMapper().readTree(r.json)
    assert(parsed.fieldNames().asScala.toSet == Set("correct", "attempted", "failed", "metrics"))
  }

  test("yelp-path: tiny traced pass reports every per-layer metric") {
    val r = tinyRun(Workloads.yelpPath, trace = true)
    assert(r.correct)
    assert(r.failed == 0)
    assert(r.metrics.map { case (k, (_, unit)) => k -> unit }.toSet == units("per_layer").toSet)
  }

  test("BENCHMARK.json workloads exist") {
    assert(names("workloads").toSet.subsetOf(Workloads.all.map(_.name).toSet))
  }

  test("the operation stream is a function of the seed") {
    val cells = IndexedSeq.tabulate(6)(i => Cell("DBLP", Catalog.dblp.node.head, s"s$i", null, i))
    val a = new OpStream(cells, 7L)
    val b = new OpStream(cells, 7L)
    val c = new OpStream(cells, 8L)
    val ops = 0 until 5 * cells.length
    assert(ops.map(a.cell) == ops.map(b.cell))
    assert(ops.map(a.rngSeed) == ops.map(b.rngSeed))
    assert(ops.map(a.cell) != ops.map(c.cell))
    // every round holds each cell once
    assert(ops.take(cells.length).map(a.cell).sortBy(_.budget) == cells)
  }
}
