package repro.core

import org.apache.spark.sql.functions._
import org.scalacheck.Gen

import repro.{Oracle, PropSupport, SparkSpec, TestGraphs}
import repro.core.CmpOp._
import repro.hypotheses.Catalog

/** Correctness of the Catalyst evaluator against (a) DuckDB SQL over the
  * same node/edge tables and (b) the driver-side LocalEvaluator.
  */
class OracleSpec extends SparkSpec with PropSupport {

  private lazy val g = TestGraphs.tiny
  private lazy val lg = TestGraphs.tinyLocal

  private def conf = Modifier("paper", Seq(AttrPred("venue_type", Eq, "conference")))
  private val coauthor = PathSpec(
    Vector(Modifier("author"), Modifier("paper"), Modifier("author")),
    Vector(PathStep("Authorship", reversed = true), PathStep("Authorship")))

  // ------------------------------------------------------------ vs DuckDB

  test("oracle: node hypothesis aggregate matches DuckDB") {
    val h = Hypothesis("n", PathSpec(Vector(conf), Vector.empty),
      NodeAttrTarget(0, "citation"), Agg.Avg, Gt, 50)
    val sparkDf = SparkEvaluator.relevantPaths(g, h).agg(avg("fval").as("v"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT avg(CAST(citation AS DOUBLE)) AS v FROM nodes " +
        "WHERE ntype='paper' AND venue_type='conference'",
      "nodes" -> g.nodes)
  }

  test("oracle: node hypothesis row set matches DuckDB") {
    val h = Hypothesis("n", PathSpec(Vector(conf), Vector.empty),
      NodeAttrTarget(0, "citation"), Agg.Avg, Gt, 50)
    Oracle.assertEquivalent(SparkEvaluator.relevantPaths(g, h),
      "SELECT id AS n0_id, CAST(citation AS DOUBLE) AS fval FROM nodes " +
        "WHERE ntype='paper' AND venue_type='conference'",
      "nodes" -> g.nodes)
  }

  test("oracle: edge hypothesis matches DuckDB join") {
    val h = Hypothesis("e",
      PathSpec(Vector(conf, Modifier("fos", Seq(AttrPred("topic", Eq, "DM")))),
        Vector(PathStep("WithDomain"))),
      EdgeAttrTarget(0, "weight"), Agg.Avg, Gt, 0.5)
    val sparkDf = SparkEvaluator.relevantPaths(g, h).agg(avg("fval").as("v"), count(lit(1)).as("n"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT avg(CAST(e.weight AS DOUBLE)) AS v, count(*) AS n " +
        "FROM edges e JOIN nodes p ON e.src = p.id JOIN nodes f ON e.dst = f.id " +
        "WHERE e.etype='WithDomain' AND p.ntype='paper' AND p.venue_type='conference' " +
        "AND f.ntype='fos' AND f.topic='DM' AND p.id <> f.id",
      "nodes" -> g.nodes, "edges" -> g.edges)
  }

  test("oracle: co-authorship path rows match DuckDB 5-way join") {
    val h = Hypothesis("p", coauthor, NodeAttrTarget(1, "citation"), Agg.Avg, Gt, 50)
    Oracle.assertEquivalent(SparkEvaluator.relevantPaths(g, h),
      "SELECT a1.id AS n0_id, p.id AS n1_id, a2.id AS n2_id, " +
        "CAST(p.citation AS DOUBLE) AS fval " +
        "FROM edges e1 JOIN nodes a1 ON e1.dst = a1.id JOIN nodes p ON e1.src = p.id " +
        "JOIN edges e2 ON e2.src = p.id JOIN nodes a2 ON e2.dst = a2.id " +
        "WHERE e1.etype='Authorship' AND e2.etype='Authorship' " +
        "AND a1.ntype='author' AND p.ntype='paper' AND a2.ntype='author' " +
        "AND a1.id <> a2.id AND a1.id <> p.id AND a2.id <> p.id",
      "nodes" -> g.nodes, "edges" -> g.edges)
  }

  test("oracle: length-3 path rows match DuckDB 7-way join") {
    val spec = PathSpec(
      Vector(Modifier("author"), Modifier("paper"), Modifier("paper"), Modifier("author")),
      Vector(PathStep("Authorship", reversed = true), PathStep("Cites"), PathStep("Authorship")))
    val h = Hypothesis("p3", spec, NodeAttrTarget(2, "citation"), Agg.Avg, Gt, 0)
    Oracle.assertEquivalent(SparkEvaluator.relevantPaths(g, h),
      "SELECT a1.id AS n0_id, p1.id AS n1_id, p2.id AS n2_id, a2.id AS n3_id, " +
        "CAST(p2.citation AS DOUBLE) AS fval " +
        "FROM edges e1 JOIN nodes a1 ON e1.dst = a1.id JOIN nodes p1 ON e1.src = p1.id " +
        "JOIN edges e2 ON e2.src = p1.id JOIN nodes p2 ON e2.dst = p2.id " +
        "JOIN edges e3 ON e3.src = p2.id JOIN nodes a2 ON e3.dst = a2.id " +
        "WHERE e1.etype='Authorship' AND e2.etype='Cites' AND e3.etype='Authorship' " +
        "AND a1.ntype='author' AND p1.ntype='paper' AND p2.ntype='paper' AND a2.ntype='author' " +
        "AND a1.id<>p1.id AND a1.id<>p2.id AND a1.id<>a2.id " +
        "AND p1.id<>p2.id AND p1.id<>a2.id AND p2.id<>a2.id",
      "nodes" -> g.nodes, "edges" -> g.edges)
  }

  test("oracle: count aggregate matches DuckDB") {
    val h = Hypothesis("cnt", coauthor, UnitTarget, Agg.Count, Gt, 0)
    val sparkDf = SparkEvaluator.relevantPaths(g, h).agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT count(*) AS n " +
        "FROM edges e1 JOIN nodes a1 ON e1.dst = a1.id JOIN nodes p ON e1.src = p.id " +
        "JOIN edges e2 ON e2.src = p.id JOIN nodes a2 ON e2.dst = a2.id " +
        "WHERE e1.etype='Authorship' AND e2.etype='Authorship' " +
        "AND a1.ntype='author' AND p.ntype='paper' AND a2.ntype='author' " +
        "AND a1.id <> a2.id AND a1.id <> p.id AND a2.id <> p.id",
      "nodes" -> g.nodes, "edges" -> g.edges)
  }

  // --------------------------------------- SparkEvaluator vs LocalEvaluator

  test("evaluators agree on the tiny graph across aggregates") {
    for (agg <- Seq(Agg.Avg, Agg.Sum, Agg.Min, Agg.Max)) {
      val h = Hypothesis("p", coauthor, NodeAttrTarget(1, "citation"), agg, Gt, 0)
      val s = SparkEvaluator.evaluate(g, h)
      val l = LocalEvaluator.evaluate(lg, h)
      assert(s.estimate == l.estimate && s.nRelevant == l.nRelevant, s"agg=$agg")
    }
  }

  test("evaluators agree on every MovieLens catalog hypothesis (small graph)") {
    for (h <- Catalog.movieLens.all) {
      val s = SparkEvaluator.evaluate(TestGraphs.mlSmall, h)
      val l = LocalEvaluator.evaluate(TestGraphs.mlSmallLocal, h)
      assert(s.nRelevant == l.nRelevant, s"${h.name}: nRelevant ${s.nRelevant} vs ${l.nRelevant}")
      (s.estimate, l.estimate) match {
        case (Some(a), Some(b)) => assert(math.abs(a - b) < 1e-6, s"${h.name}: $a vs $b")
        case (a, b)             => assert(a == b, s"${h.name}")
      }
    }
  }

  test("evaluators agree on every DBLP catalog hypothesis (small graph)") {
    for (h <- Catalog.dblp.all ++ Catalog.dblpLongPaths) {
      val s = SparkEvaluator.evaluate(TestGraphs.dblpSmall, h)
      val l = LocalEvaluator.evaluate(TestGraphs.dblpSmallLocal, h)
      assert(s.nRelevant == l.nRelevant, s"${h.name}: nRelevant ${s.nRelevant} vs ${l.nRelevant}")
      (s.estimate, l.estimate) match {
        case (Some(a), Some(b)) => assert(math.abs(a - b) < 1e-6, s"${h.name}: $a vs $b")
        case (a, b)             => assert(a == b, s"${h.name}")
      }
    }
  }

  test("evaluators agree on every Yelp catalog hypothesis (small graph)") {
    for (h <- Catalog.yelp.all) {
      val s = SparkEvaluator.evaluate(TestGraphs.yelpSmall, h)
      val l = LocalEvaluator.evaluate(TestGraphs.yelpSmallLocal, h)
      assert(s.nRelevant == l.nRelevant, s"${h.name}: nRelevant ${s.nRelevant} vs ${l.nRelevant}")
      (s.estimate, l.estimate) match {
        case (Some(a), Some(b)) => assert(math.abs(a - b) < 1e-6, s"${h.name}: $a vs $b")
        case (a, b)             => assert(a == b, s"${h.name}")
      }
    }
  }

  test("SparkEvaluator collectValues returns the t-test inputs") {
    val h = Hypothesis("p", coauthor, NodeAttrTarget(1, "citation"), Agg.Avg, Gt, 0)
    val r = SparkEvaluator.evaluate(g, h, collectValues = true)
    assert(r.values.sorted.toSeq == Seq(10.0, 10.0, 100.0, 100.0))
  }

  // ------------------------- LocalEvaluator vs SparkEvaluator, random graphs

  private type NodeRow = (Long, String, Map[String, Any])
  private type EdgeRow = (Long, Long, String, Map[String, Any])

  /** 3–10 nodes of types a/b joined by random r/s edges, plus one isolated
    * node, a self-loop and a repeated edge. Node attributes x (small
    * integers) and s (string or null) and edge attribute w (quarters) may be
    * absent; the first node and first edge carry them all, so every
    * attribute has a column. Sums of these values are exact in any order,
    * so both evaluators must agree exactly.
    */
  private val genGraph: Gen[(Seq[NodeRow], Seq[EdgeRow])] = {
    val x = Gen.option(Gen.choose(0, 20).map(v => "x" -> (v.toDouble: Any)))
    val str = Gen.option(Gen.oneOf[Any]("u", "v", "w", null).map("s" -> _))
    val w = Gen.option(Gen.choose(0, 8).map(v => "w" -> (v / 4.0: Any)))
    for {
      n <- Gen.choose(3, 10)
      types <- Gen.listOfN(n + 1, Gen.oneOf("a", "b"))
      attrs <- Gen.listOfN(n + 1, Gen.zip(x, str).map { case (a, b) => (a ++ b).toMap })
      m <- Gen.choose(1, 2 * n)
      edges <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1),
        Gen.oneOf("r", "s"), w.map(_.toMap)))
      loop <- Gen.choose(0, n - 1)
    } yield {
      val nodes = (0 to n).map { i =>
        (i * 7L, types(i), if (i == 0) attrs(i) ++ Map("x" -> 3.0, "s" -> "v") else attrs(i))
      }
      val es = edges.map { case (a, b, t, ws) => (a * 7L, b * 7L, t, ws) }
      val first = es.head.copy(_4 = es.head._4 ++ Map("w" -> 0.5))
      (nodes, (first +: es.tail) ++ Seq((loop * 7L, loop * 7L, "r", Map.empty[String, Any]), first))
    }
  }

  /** A hypothesis of length 0–2 over types a/b and edge types r/s, where c
    * and t (absent from every graph) occur now and then.
    */
  private val genHypothesis: Gen[Hypothesis] = {
    val pred = Gen.oneOf(
      Gen.zip(Gen.oneOf(Eq, Ne, Gt, Lt), Gen.choose(0, 20)).map { case (o, c) => AttrPred("x", o, c.toDouble) },
      Gen.zip(Gen.oneOf(Eq, Ne, Gt, Lt), Gen.oneOf("u", "v", "w")).map { case (o, c) => AttrPred("s", o, c) })
    val modifier = for {
      t <- Gen.frequency(4 -> "a", 4 -> "b", 1 -> "c")
      k <- Gen.frequency(2 -> 0, 1 -> 1)
      preds <- Gen.listOfN(k, pred)
    } yield Modifier(t, preds)
    val step = Gen.zip(Gen.frequency(4 -> "r", 4 -> "s", 1 -> "t"), Gen.oneOf(false, true))
      .map { case (t, rev) => PathStep(t, rev) }
    for {
      l <- Gen.choose(0, 2)
      mods <- Gen.listOfN(l + 1, modifier)
      steps <- Gen.listOfN(l, step)
      agg <- Gen.oneOf(Agg.Avg, Agg.Sum, Agg.Min, Agg.Max, Agg.Count)
      pos <- Gen.choose(0, l)
      onEdge <- Gen.oneOf(false, true)
    } yield {
      val target =
        if (agg == Agg.Count) UnitTarget
        else if (onEdge && l > 0) EdgeAttrTarget(pos min (l - 1), "w")
        else NodeAttrTarget(pos, "x")
      Hypothesis("rand", PathSpec(mods.toVector, steps.toVector), target, agg, Gt, 5.0)
    }
  }

  test("evaluators agree on random graphs with isolated nodes, self-loops, multi-edges and absent types") {
    val seen = scala.collection.mutable.Set.empty[(Int, Agg)]
    var nonEmpty = 0
    forAllG(genGraph, genHypothesis) { case ((nodes, edges), h) =>
      val ag = AttributedGraph.fromTuples(spark, nodes, edges)
      val s = SparkEvaluator.evaluate(ag, h, collectValues = true)
      val l = LocalEvaluator.evaluate(LocalGraph.fromAttributed(ag), h)
      assert(s.nRelevant == l.nRelevant)
      assert(s.estimate == l.estimate)
      assert(s.values.sorted.toSeq == l.values.sorted.toSeq)
      seen += h.path.length -> h.agg
      if (l.nRelevant > 0) nonEmpty += 1
    }
    assert(seen.map(_._1) == Set(0, 1, 2))
    assert(seen.map(_._2).size == 5)
    assert(nonEmpty >= propIterations / 3, s"only $nonEmpty of $propIterations cases had relevant paths")
  }
}
