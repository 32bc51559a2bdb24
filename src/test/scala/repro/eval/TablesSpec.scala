package repro.eval

import repro.SparkSpec
import repro.eval.Tables.{Config, DatasetStats}

/** The table harness on the scale-0.05 datasets. The pinned values were
  * recorded when Table 1 was still counted by Spark jobs over the
  * DataFrames and Table 2 still had a run loop of its own; the harness now
  * reads only the collected graphs and must reproduce them exactly.
  */
class TablesSpec extends SparkSpec {

  private lazy val graphs = Tables.datasets(spark, Config(scale = 0.05))

  test("Table 1 rows of the scale-0.05 graphs are pinned") {
    assert(Tables.table1(graphs) == Seq(
      DatasetStats("MovieLens", 160, 3000, 0.1179245283018868, 2, 1),
      DatasetStats("DBLP", 1625, 7462, 0.0028275862068965515, 4, 4),
      DatasetStats("Yelp", 1250, 5202, 0.0033319455564451562, 2, 1)))
  }

  test("Table 2 estimates on the scale-0.05 DBLP graph are pinned") {
    val rows = Tables.table2(graphs.toMap.apply("DBLP"), Config(scale = 0.05, runs = 3))
    assert(rows.map(r => (r.kind, r.phaseEstimate, r.phaseOptEstimate)) == Seq(
      ("node", Some(45.72422922922923), Some(42.7517357113451)),
      ("edge", Some(0.6179851470251916), Some(0.6577030967771894)),
      ("path", Some(34.73015873015873), Some(27.390873015873016))))
  }
}
