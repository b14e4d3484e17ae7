package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.TestGraphs
import repro.testkit.TestGraphs.mask

class ValidatorsSpec extends AnyFunSuite {

  // Both validators against cycle enumeration, which shares no search code.
  private def checkAgreement(g: DirectedGraph, k: Int, minLen: Int = 3): Unit = {
    val find = new FindCycle(g, k, minLen)
    val block = new BlockDfsValidator(g, k, minLen)
    val all = mask(g)
    val onCycle = BruteForce.enumerateCycles(g, k, minLen).flatten.toSet
    for (v <- 0 until g.n) {
      val expected = onCycle.contains(v)
      assert(find.existsCycleThrough(v, all) == expected, s"find k=$k v=$v")
      assert(block.existsCycleThrough(v, all) == expected, s"block k=$k v=$v")
    }
  }

  test("plain and block validators agree with brute force on the triangle") {
    checkAgreement(TestGraphs.triangle, k = 3)
  }

  test("agreement on the square across k=3..5") {
    for (k <- 3 to 5) checkAgreement(TestGraphs.square, k)
  }

  test("agreement on figure-1 across k=3..6") {
    for (k <- 3 to 6) checkAgreement(TestGraphs.figure1, k)
  }

  test("2-cycle alone: no validator reports a constrained cycle") {
    checkAgreement(TestGraphs.twoCycle, k = 5)
  }

  test("block validator survives the 2-cycle + triangle trap") {
    // Shortest return to 0 is the excluded 2-cycle; the triangle 0-1-2 must
    // still be found and the failed 2-cycle return must not poison blocks.
    val g = TestGraphs.twoCyclePlusTriangle
    for (k <- 3 to 6) checkAgreement(g, k)
  }

  test("2-cycle trap via a detour: block values must not over-prune") {
    // 0->1, 1->0 (2-cycle), 2->1, 0->2: cycle 0->2->1->0 exists (len 3).
    val g = TestGraphs.fromPairs((0, 1), (1, 0), (2, 1), (0, 2))
    for (k <- 3 to 5) checkAgreement(g, k)
  }

  test("failure-bound reuse across branches stays sound") {
    // Two branches into a shared tail that cannot return: blocks set by the
    // first branch must not hide the cycle reachable via the second.
    val g = TestGraphs.fromPairs(
      (0, 1), (1, 3), (0, 2), (2, 3), (3, 4), (4, 5), // long dead tail
      (2, 6), (6, 0))                                  // actual triangle 0-2-6
    for (k <- 3 to 6) checkAgreement(g, k)
  }

  test("agreement on random graphs, k=3..6, minLen=3") {
    for (seed <- 1 to 8; k <- 3 to 6) {
      checkAgreement(TestGraphs.random(15, 45, seed), k)
    }
  }

  test("agreement on random graphs with minLen=2 (with-2-cycles variant)") {
    for (seed <- 1 to 8; k <- 2 to 5) {
      checkAgreement(TestGraphs.random(15, 45, seed), k, minLen = 2)
    }
  }

  test("agreement on denser random graphs") {
    for (seed <- 1 to 4; k <- 3 to 5) {
      checkAgreement(TestGraphs.random(20, 140, seed * 31), k)
    }
  }

  test("agreement on reciprocal-edge-heavy graphs (2-cycle stress), k=3..6") {
    for (seed <- 1 to 12; k <- 3 to 6) {
      checkAgreement(TestGraphs.randomWithReciprocals(12, 30, 0.5, seed), k)
    }
  }

  test("agreement on almost-fully-reciprocal graphs") {
    for (seed <- 1 to 8; k <- 3 to 5) {
      checkAgreement(TestGraphs.randomWithReciprocals(10, 22, 0.9, seed * 7), k)
    }
  }

  test("agreement with minLen=2 on reciprocal-heavy graphs") {
    for (seed <- 1 to 8; k <- 2 to 5) {
      checkAgreement(TestGraphs.randomWithReciprocals(12, 28, 0.5, seed * 3), k, minLen = 2)
    }
  }

  test("validators respect the allowed mask") {
    val g = TestGraphs.bowTie
    val block = new BlockDfsValidator(g, 5)
    val find = new FindCycle(g, 5)
    val no1 = mask(g, 1)
    assert(block.existsCycleThrough(0, no1))  // 0-3-4 remains
    assert(find.existsCycleThrough(0, no1))
    val no13 = mask(g, 1, 3)
    assert(!block.existsCycleThrough(0, no13))
    assert(!find.existsCycleThrough(0, no13))
  }

  test("one FindCycle reused over all sources agrees with fresh instances") {
    for (seed <- 1 to 6; minLen <- 2 to 3; k <- 3 to 6) {
      val g = TestGraphs.random(16, 60, seed)
      val rnd = new scala.util.Random(seed)
      val allowed = Array.fill(g.n)(rnd.nextDouble() < 0.8)
      val reused = new FindCycle(g, k, minLen)
      for (s <- 0 until g.n if allowed(s)) {
        val c = reused.findCycleThrough(s, allowed)
        val fresh = new FindCycle(g, k, minLen).findCycleThrough(s, allowed)
        val ctx = s"seed=$seed minLen=$minLen k=$k s=$s"
        assert(Option(c).map(_.toSeq) == Option(fresh).map(_.toSeq), ctx)
        if (c != null) {
          assert(c.head == s, ctx)
          assert(c.length >= minLen && c.length <= k, ctx)
          assert(c.distinct.length == c.length, s"not simple: $ctx")
          assert(c.forall(allowed(_)), s"disallowed vertex: $ctx")
          c.indices.foreach(i => assert(g.hasEdge(c(i), c((i + 1) % c.length)), ctx))
        }
      }
    }
  }

  test("block validator is reusable across many sources (stamp reset)") {
    val g = TestGraphs.random(25, 100, seed = 17)
    val block = new BlockDfsValidator(g, 5)
    // run twice over all vertices — second pass must agree with the first
    val first = (0 until g.n).map(v => block.existsCycleThrough(v, mask(g)))
    val second = (0 until g.n).map(v => block.existsCycleThrough(v, mask(g)))
    assert(first == second)
  }

  test("BFS filter is safe: never prunes a vertex on a constrained cycle") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(18, 60, seed)
      val k = 5
      val filter = new BfsFilter(g, k)
      val onCycle = BruteForce.enumerateCycles(g, k).flatten.toSet
      for (v <- 0 until g.n if onCycle.contains(v)) {
        assert(filter.mayHaveCycle(v, mask(g)), s"seed=$seed v=$v wrongly pruned")
      }
    }
  }

  test("BFS filter prunes everything in a DAG") {
    val g = TestGraphs.dag
    val filter = new BfsFilter(g, 5)
    for (v <- 0 until g.n) assert(!filter.mayHaveCycle(v, mask(g)))
    assert(filter.pruned == g.n)
  }

  test("BFS filter respects the hop bound") {
    val g = TestGraphs.fromPairs((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)) // 5-cycle
    assert(new BfsFilter(g, 5).mayHaveCycle(0, mask(g)))
    assert(!new BfsFilter(g, 4).mayHaveCycle(0, mask(g)))
  }

  test("BFS filter keeps the 2-cycle-only vertex (conservative, DFS decides)") {
    val g = TestGraphs.twoCycle
    val filter = new BfsFilter(g, 5)
    assert(filter.mayHaveCycle(0, mask(g))) // conservative: closed walk exists
    assert(!new BlockDfsValidator(g, 5).existsCycleThrough(0, mask(g)))
  }

  test("BFS filter honours the allowed mask") {
    val g = TestGraphs.triangle
    val filter = new BfsFilter(g, 5)
    assert(filter.mayHaveCycle(0, mask(g)))
    assert(!filter.mayHaveCycle(0, mask(g, 2)))
  }

  test("zero-degree vertices are pruned immediately") {
    val g = TestGraphs.fromPairs((0, 1), (1, 2), (2, 0), (2, 3)) // 3 is a sink
    val filter = new BfsFilter(g, 5)
    assert(!filter.mayHaveCycle(3, mask(g)))
  }

  test("validator visit counters increase monotonically") {
    val g = TestGraphs.random(20, 80, seed = 23)
    val block = new BlockDfsValidator(g, 5)
    val v0 = block.visits
    block.existsCycleThrough(0, mask(g))
    assert(block.visits >= v0)
  }
}
