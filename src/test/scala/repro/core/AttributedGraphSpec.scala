package repro.core

import org.apache.spark.sql.functions.col

import repro.{SparkSpec, TestGraphs}
import repro.eval.Tables

/** DataFrame-backed attributed graph model: `fromTuples` typing and
  * validation, and the Table 1 statistics of the graph it ingests.
  */
class AttributedGraphSpec extends SparkSpec {

  private lazy val g = TestGraphs.tiny
  private lazy val stats = Tables.table1(Seq("tiny" -> TestGraphs.tinyLocal)).head

  test("node and edge counts") {
    assert(stats.nodes == 10)
    assert(stats.edges == 12)
  }
  test("node types enumerated") {
    assert(TestGraphs.tinyLocal.ntypes.sorted.toSeq == Seq("author", "fos", "paper", "venue"))
    assert(stats.nodeTypes == 4)
  }
  test("edge types enumerated") {
    assert(TestGraphs.tinyLocal.etypes.sorted.toSeq == Seq("Authorship", "Cites", "PublishedIn", "WithDomain"))
    assert(stats.edgeTypes == 4)
  }
  test("density is |E| / (|V| (|V|-1))") {
    assert(math.abs(stats.density - 12.0 / (10 * 9)) < 1e-12)
  }
  test("fromTuples types numeric attributes as double") {
    val schema = g.nodes.schema
    assert(schema("citation").dataType.typeName == "double")
    assert(schema("venue_type").dataType.typeName == "string")
  }
  test("fromTuples leaves absent attributes null") {
    val authors = g.nodes.filter(col("ntype") === "author")
    assert(authors.filter(col("citation").isNotNull).count() == 0)
  }
  test("fromTuples reads a null value as absent") {
    val ag = AttributedGraph.fromTuples(spark,
      nodeRows = Seq(
        (1L, "venue", Map[String, Any]("vtype" -> "conference")),
        (2L, "venue", Map[String, Any]("vtype" -> null))),
      edgeRows = Seq((1L, 2L, "Cites", Map[String, Any]("note" -> null))))
    assert(ag.nodes.orderBy("id").select("vtype").collect().map(_.get(0)).toSeq ==
      Seq("conference", null))
    assert(!ag.edges.columns.contains("note"))
  }
  test("fromTuples rejects a key that mixes numeric and non-numeric values") {
    val e = intercept[IllegalArgumentException] {
      AttributedGraph.fromTuples(spark,
        nodeRows = Seq(
          (1L, "paper", Map[String, Any]("year" -> 2020.0)),
          (2L, "paper", Map[String, Any]("year" -> "unknown"))),
        edgeRows = Nil)
    }
    assert(e.getMessage.contains("'year'"))
  }
  test("constructor validates required columns") {
    intercept[IllegalArgumentException] {
      AttributedGraph(g.nodes.drop("ntype"), g.edges)
    }
    intercept[IllegalArgumentException] {
      AttributedGraph(g.nodes, g.edges.drop("etype"))
    }
  }
}
