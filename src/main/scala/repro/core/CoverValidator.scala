package repro.core

/** Checks a computed cover for feasibility (no constrained cycle survives
  * in G − C) and minimality (every cover vertex has a private witness
  * cycle). Tests use the plain-DFS flavour for independence from the block
  * machinery; benches use the fast flavour for large graphs.
  */
object CoverValidator {

  /** Mask of the vertices outside the cover (ids absent from `g` are skipped). */
  private def outside(g: DirectedGraph, coverIds: Array[Long]): Array[Boolean] = {
    val allowed = Array.fill(g.n)(true)
    coverIds.foreach { id =>
      val v = java.util.Arrays.binarySearch(g.ids, id)
      if (v >= 0) allowed(v) = false
    }
    allowed
  }

  /** Valid ⟺ the graph induced on V − C has no constrained cycle. */
  def isValid(g: DirectedGraph, k: Int, minLen: Int, coverIds: Array[Long],
              fast: Boolean = false): Boolean = {
    val allowed = outside(g, coverIds)
    if (!fast) !BruteForce.existsConstrainedCycle(g, k, minLen, allowed)
    else {
      val filter = new BfsFilter(g, k)
      val blockDfs = new BlockDfsValidator(g, k, minLen)
      var v = 0
      while (v < g.n) {
        if (allowed(v) && filter.mayHaveCycle(v, allowed) &&
            blockDfs.existsCycleThrough(v, allowed)) return false
        v += 1
      }
      true
    }
  }

  /** Minimal ⟺ for each c ∈ C there is a constrained cycle through c whose
    * other vertices all avoid C.
    */
  def isMinimal(g: DirectedGraph, k: Int, minLen: Int, coverIds: Array[Long],
                fast: Boolean = false): Boolean = {
    val allowed = outside(g, coverIds)
    val validator: NodeValidator =
      if (fast) new BlockDfsValidator(g, k, minLen) else new FindCycle(g, k, minLen)
    coverIds.forall { id =>
      val c = java.util.Arrays.binarySearch(g.ids, id)
      c >= 0 && {
        allowed(c) = true
        val witnessed = validator.existsCycleThrough(c, allowed)
        allowed(c) = false
        witnessed
      }
    }
  }
}
