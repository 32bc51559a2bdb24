package repro.bench

import repro.SparkSpec
import repro.core.LocalGraph
import repro.eval.Tables

/** Bench-wide shared state, built once per bench JVM: the three datasets,
  * read by every table suite, and the Table 3/4 grid (3 datasets x 3 kinds
  * x 12 samplers x 3 hypotheses x runs), printed by both grid suites.
  */
object BenchShared {
  lazy val cfg: Tables.Config = Tables.config()

  lazy val graphs: Seq[(String, LocalGraph)] = Tables.datasets(SparkSpec.shared, cfg)

  lazy val grid: Tables.Grid = {
    val t0 = System.nanoTime()
    val g = Tables.grid(graphs, cfg, progress = s => Console.err.println(s"[grid] $s"))
    Console.err.println(f"[grid] computed in ${(System.nanoTime() - t0) / 1e9}%.1f s")
    g
  }
}
