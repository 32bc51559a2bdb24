package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.CmpOp._

/** Unit tests for the hypothesis language (no Spark needed). */
class HypothesisSpec extends AnyFunSuite {

  // ---------------------------------------------------------------- CmpOp

  test("Eq on doubles uses tolerance") {
    assert(Eq.eval(1.0, 1.0 + 1e-12))
    assert(!Eq.eval(1.0, 1.001))
  }
  test("Ne on doubles") { assert(Ne.eval(1.0, 2.0)); assert(!Ne.eval(2.0, 2.0)) }
  test("Gt on doubles") { assert(Gt.eval(3.0, 2.0)); assert(!Gt.eval(2.0, 2.0)) }
  test("Lt on doubles") { assert(Lt.eval(1.0, 2.0)); assert(!Lt.eval(2.0, 2.0)) }
  test("Eq on strings") { assert(Eq.eval("a", "a")); assert(!Eq.eval("a", "b")) }
  test("Gt on strings is lexicographic") { assert(Gt.eval("b", "a")) }
  test("mixed numeric types compare numerically") {
    assert(Eq.eval(2, 2.0))
    assert(Eq.eval(2L, 2.0))
    assert(Gt.eval(3L, 2))
  }
  test("number vs non-numeric string falls back to string comparison") {
    assert(!Eq.eval(2.0, "abc"))
  }

  // ----------------------------------------------------------------- Attr

  test("Attr.num widens all numeric types") {
    assert(Attr.num(1).contains(1.0))
    assert(Attr.num(1L).contains(1.0))
    assert(Attr.num(1.5f).contains(1.5))
    assert(Attr.num(2.5).contains(2.5))
    assert(Attr.num(new java.math.BigDecimal("3.25")).contains(3.25))
    assert(Attr.num(BigDecimal("4.5")).contains(4.5))
    assert(Attr.num((1: Short)).contains(1.0))
    assert(Attr.num((1: Byte)).contains(1.0))
  }
  test("Attr.num rejects strings and null") {
    assert(Attr.num("x").isEmpty)
    assert(Attr.num(null).isEmpty)
  }

  // ------------------------------------------------------------- AttrPred

  test("AttrPred matches on present attribute") {
    assert(AttrPred("citation", Gt, 50.0).matches(Map("citation" -> 100.0)))
    assert(!AttrPred("citation", Gt, 50.0).matches(Map("citation" -> 10.0)))
  }
  test("AttrPred on absent attribute is false") {
    assert(!AttrPred("citation", Gt, 0.0).matches(Map("other" -> 1.0)))
  }
  test("AttrPred on null attribute is false") {
    assert(!AttrPred("citation", Eq, 0.0).matches(Map("citation" -> null)))
  }
  test("AttrPred string equality") {
    assert(AttrPred("vt", Eq, "conference").matches(Map("vt" -> "conference")))
    assert(!AttrPred("vt", Eq, "conference").matches(Map("vt" -> "journal")))
  }

  // ------------------------------------------------------------- Modifier

  test("Modifier requires node type and all predicates") {
    val m = Modifier("paper", Seq(AttrPred("citation", Gt, 50.0), AttrPred("vt", Eq, "c")))
    assert(m.matches("paper", Map("citation" -> 60.0, "vt" -> "c")))
    assert(!m.matches("author", Map("citation" -> 60.0, "vt" -> "c")))
    assert(!m.matches("paper", Map("citation" -> 60.0, "vt" -> "j")))
  }
  test("Modifier with no predicates matches any node of the type") {
    assert(Modifier("paper").matches("paper", Map.empty))
  }

  // ------------------------------------------------------------- PathSpec

  test("PathSpec validates modifier/step arity") {
    intercept[IllegalArgumentException] {
      PathSpec(Vector(Modifier("a")), Vector(PathStep("e")))
    }
    intercept[IllegalArgumentException] {
      PathSpec(Vector.empty, Vector.empty)
    }
  }
  test("PathSpec length") {
    assert(PathSpec(Vector(Modifier("a")), Vector.empty).length == 0)
    assert(PathSpec(Vector(Modifier("a"), Modifier("b")), Vector(PathStep("e"))).length == 1)
  }

  // ----------------------------------------------------------- Hypothesis

  private val nodeH = Hypothesis("h0", PathSpec(Vector(Modifier("paper")), Vector.empty),
    NodeAttrTarget(0, "citation"), Agg.Avg, Gt, 50)
  private val edgeH = Hypothesis("h1",
    PathSpec(Vector(Modifier("paper"), Modifier("fos")), Vector(PathStep("WithDomain"))),
    EdgeAttrTarget(0, "weight"), Agg.Avg, Gt, 0.5)
  private val pathH = Hypothesis("h2",
    PathSpec(Vector(Modifier("author"), Modifier("paper"), Modifier("author")),
      Vector(PathStep("Authorship", reversed = true), PathStep("Authorship"))),
    NodeAttrTarget(1, "citation"), Agg.Avg, Gt, 50)

  test("kind follows path length") {
    assert(nodeH.kind == "node")
    assert(edgeH.kind == "edge")
    assert(pathH.kind == "path")
  }
  test("decide applies the predicate") {
    assert(nodeH.decide(51.0))
    assert(!nodeH.decide(50.0))
    assert(Hypothesis("h", nodeH.path, nodeH.target, Agg.Avg, Lt, 50).decide(49.0))
  }
  test("target positions are validated") {
    intercept[IllegalArgumentException] {
      Hypothesis("bad", nodeH.path, NodeAttrTarget(1, "x"), Agg.Avg, Gt, 0)
    }
    intercept[IllegalArgumentException] {
      Hypothesis("bad", edgeH.path, EdgeAttrTarget(1, "x"), Agg.Avg, Gt, 0)
    }
    intercept[IllegalArgumentException] {
      Hypothesis("bad", nodeH.path, UnitTarget, Agg.Avg, Gt, 0)
    }
  }
  test("UnitTarget with Count is allowed") {
    val h = Hypothesis("cnt", nodeH.path, UnitTarget, Agg.Count, Gt, 0)
    assert(h.agg == Agg.Count)
  }
}
