package repro.darc

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{BruteForce, CoverValidator, DirectedGraph, TopDown}
import repro.testkit.TestGraphs

class DarcSpec extends AnyFunSuite {

  /** src of the G-edge behind line node `e`: the vertex whose CSR out-slice holds `e`. */
  private def srcOf(g: DirectedGraph, e: Int): Int =
    (0 until g.n).find(v => g.outOff(v) <= e && e < g.outOff(v + 1)).get

  test("line graph maps edges to line nodes with matching src/dst") {
    val g = TestGraphs.triangle
    val lg = new LineGraph(g)
    assert(lg.size == 3)
    for (e <- 0 until lg.size) {
      assert(g.hasEdge(srcOf(g, e), lg.eDst(e)))
    }
  }

  test("line arc count equals sum of in(v)*out(v)") {
    val g = TestGraphs.random(20, 80, seed = 1)
    val lg = new LineGraph(g)
    val expected = (0 until g.n).map(v => g.inDeg(v).toLong * g.outDeg(v)).sum
    assert(lg.arcCount == expected)
  }

  test("line out-arcs of a node all start at its dst vertex") {
    val g = TestGraphs.figure1
    val lg = new LineGraph(g)
    for (a <- 0 until lg.size; b <- lg.outLo(a) until lg.outHi(a)) {
      assert(srcOf(g, b) == lg.eDst(a))
      assert(lg.viaVertex(a) == srcOf(g, b))
    }
  }

  test("arc encode/decode round-trips") {
    val lg = new LineGraph(TestGraphs.triangle)
    val e = lg.encode(1, 2)
    assert(lg.arcFrom(e) == 1 && lg.arcTo(e) == 2)
  }

  test("DARC-DV covers the triangle") {
    val res = DarcDV.cover(TestGraphs.triangle, 3)
    assert(res.size >= 1)
    assert(CoverValidator.isValid(TestGraphs.triangle, 3, 3, res.cover))
  }

  test("DARC-DV ignores pure 2-cycles") {
    val res = DarcDV.cover(TestGraphs.twoCycle, 5)
    assert(res.size == 0)
  }

  test("DARC-DV covers figure-1 validly") {
    val res = DarcDV.cover(TestGraphs.figure1, 5)
    assert(CoverValidator.isValid(TestGraphs.figure1, 5, 3, res.cover))
  }

  test("DARC-DV covers are valid on random graphs") {
    for (seed <- 1 to 10; k <- 3 to 5) {
      val g = TestGraphs.random(14, 45, seed)
      val res = DarcDV.cover(g, k)
      assert(CoverValidator.isValid(g, k, 3, res.cover), s"seed=$seed k=$k")
    }
  }

  test("DARC-DV DAG cover is empty") {
    assert(DarcDV.cover(TestGraphs.dag, 6).size == 0)
  }

  test("DARC-DV tends to produce covers at least as large as TDB++ (paper shape)") {
    // Not a per-instance guarantee; aggregate over seeds as the paper does
    // over datasets.
    var darcTotal = 0; var tdbTotal = 0
    for (seed <- 1 to 12) {
      val g = TestGraphs.random(16, 60, seed * 29)
      darcTotal += DarcDV.cover(g, 5).size
      tdbTotal += TopDown.cover(g, 5).size
    }
    assert(darcTotal >= tdbTotal, s"darc=$darcTotal tdb=$tdbTotal")
  }

  test("TooLargeException fires when the arc budget is exceeded") {
    val g = TestGraphs.random(30, 300, seed = 3)
    intercept[DarcDV.TooLargeException] {
      DarcDV.cover(g, 5, maxArcs = 1)
    }
  }

  test("DARC-DV result ids are original ids, sorted") {
    val g = TestGraphs.randomSparseIds(14, 50, seed = 7)
    val res = DarcDV.cover(g, 5)
    assert(res.cover.sorted.sameElements(res.cover))
    res.cover.foreach(id => assert(g.ids.contains(id)))
  }

  test("deterministic across runs") {
    val g = TestGraphs.random(16, 60, seed = 13)
    assert(DarcDV.cover(g, 5).cover.toSeq == DarcDV.cover(g, 5).cover.toSeq)
  }

  test("arc cover stat present and bounded by line arc count") {
    val g = TestGraphs.random(14, 50, seed = 19)
    val res = DarcDV.cover(g, 5)
    assert(res.stats("arcCover") <= res.stats("lineArcs"))
  }

  test("minLen=2: DARC-DV also breaks 2-cycles") {
    val res = DarcDV.cover(TestGraphs.twoCycle, 5, minLen = 2)
    assert(res.size >= 1)
    assert(CoverValidator.isValid(TestGraphs.twoCycle, 5, 2, res.cover))
  }

  test("every brute-force cycle is hit by the DARC-DV cover (direct check)") {
    for (seed <- 1 to 6) {
      val g = TestGraphs.random(14, 48, seed * 3)
      val cover = DarcDV.cover(g, 5).cover.toSet
      val cycles = BruteForce.enumerateCycles(g, 5)
      cycles.foreach { c =>
        assert(c.exists(v => cover.contains(g.idOf(v))), s"seed=$seed uncovered $c")
      }
    }
  }
}
