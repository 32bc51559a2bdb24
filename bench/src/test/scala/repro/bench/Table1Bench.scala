package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.eval.Tables

/** Paper Table 1 — dataset statistics.
  *
  * Paper values (real datasets):
  *   MovieLens      9,705    996,656  1.06e-02  2 node types  1 edge type
  *   DBLP       1,623,013 11,040,170  4.19e-06  4             4
  *   Yelp       2,136,118  6,743,879  1.48e-06  2             1
  * Our synthetic substitutes preserve the type structure and relative
  * density ordering at bench scale (DESIGN.md §4).
  */
class Table1Bench extends AnyFunSuite {

  private lazy val rows = Tables.table1(BenchShared.graphs)

  test("Table 1: print dataset statistics") {
    println(Tables.renderTable1(rows))
  }

  test("Table 1 shape: type structure matches the paper") {
    val byName = rows.map(r => r.name -> r).toMap
    assert(byName("MovieLens").nodeTypes == 2 && byName("MovieLens").edgeTypes == 1)
    assert(byName("DBLP").nodeTypes == 4 && byName("DBLP").edgeTypes == 4)
    assert(byName("Yelp").nodeTypes == 2 && byName("Yelp").edgeTypes == 1)
  }

  test("Table 1 shape: MovieLens densest, Yelp sparser than DBLP's ballpark") {
    val byName = rows.map(r => r.name -> r).toMap
    assert(byName("MovieLens").density > byName("DBLP").density)
    assert(byName("MovieLens").density > byName("Yelp").density)
  }

  test("Table 1 shape: DBLP and Yelp are the large graphs") {
    val byName = rows.map(r => r.name -> r).toMap
    assert(byName("DBLP").nodes > byName("MovieLens").nodes)
    assert(byName("Yelp").nodes > byName("MovieLens").nodes)
  }
}
