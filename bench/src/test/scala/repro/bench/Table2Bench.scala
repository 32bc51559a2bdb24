package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.eval.Tables

/** Paper Table 2 — average execution time (s) of PHASE vs PHASE_opt on DBLP.
  *
  * Paper values:            Node    Edge    Path
  *   PHASE                115.66  539.15  441.30
  *   PHASE_opt              5.56    8.76    5.91   (>= 20x faster)
  * Expected shape here: PHASE_opt clearly faster on the hub-heavy synthetic
  * DBLP, with comparable estimates (<5% accuracy loss per §4.3; we assert a
  * generous relative-estimate bound at this scale).
  */
class Table2Bench extends AnyFunSuite {

  private lazy val rows = Tables.table2(BenchShared.graphs.toMap.apply("DBLP"), BenchShared.cfg)

  test("Table 2: print PHASE vs PHASEopt timings") {
    println(Tables.renderTable2(rows))
  }

  test("Table 2 shape: PHASEopt is faster than PHASE for every hypothesis kind") {
    rows.foreach { r =>
      assert(r.phaseOptMillis < r.phaseMillis,
        f"${r.kind}: PHASEopt ${r.phaseOptMillis}%.1f ms vs PHASE ${r.phaseMillis}%.1f ms")
    }
  }

  test("Table 2 shape: the overall speedup is substantial (hub neighborhoods)") {
    val overall = rows.map(_.phaseMillis).sum / rows.map(_.phaseOptMillis).sum
    assert(overall > 2.0, f"overall speedup $overall%.1fx")
  }

  test("Table 2 shape: PHASEopt estimates stay close to PHASE's") {
    rows.foreach { r =>
      (r.phaseEstimate, r.phaseOptEstimate) match {
        case (Some(p), Some(o)) =>
          assert(math.abs(p - o) / math.abs(p) < 0.15,
            f"${r.kind}: PHASE=$p%.3f PHASEopt=$o%.3f")
        case (p, o) => fail(s"${r.kind}: missing estimate PHASE=$p PHASEopt=$o")
      }
    }
  }
}
