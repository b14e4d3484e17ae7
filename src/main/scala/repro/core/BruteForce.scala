package repro.core

import scala.collection.mutable

/** Exhaustive reference algorithms for tiny graphs.
  *
  * [[enumerateCycles]] is the tests' ground truth for cycle membership; it
  * shares no code with the searches of the cover algorithms.
  * [[existsConstrainedCycle]] is the plain cover check, built on
  * [[FindCycle]]. All searches respect the paper's cycle definition:
  * simple, directed, length in `[minLen, k]` with `minLen = 3` (self-loops
  * and 2-cycles excluded) unless the "with 2-cycles" variant (`minLen = 2`)
  * is requested.
  */
object BruteForce {

  /** Enumerate every constrained simple cycle, each reported once, as the
    * vertex sequence rotated to start at its smallest internal vertex.
    * Exponential — only call on tiny graphs (tests cap n around 60).
    */
  def enumerateCycles(g: DirectedGraph, k: Int, minLen: Int = 3): Vector[Vector[Int]] = {
    val res = Vector.newBuilder[Vector[Int]]
    val onPath = new Array[Boolean](g.n)
    val path = new mutable.ArrayBuffer[Int]

    def dfs(start: Int, u: Int): Unit = {
      var i = g.outOff(u)
      val hi = g.outOff(u + 1)
      while (i < hi) {
        val w = g.outAdj(i)
        if (w == start) {
          val len = path.length // cycle length = path vertices (closing edge included)
          if (len >= minLen && len <= k) res += path.toVector
        } else if (w > start && !onPath(w) && path.length < k) {
          onPath(w) = true; path += w
          dfs(start, w)
          path.remove(path.length - 1); onPath(w) = false
        }
        i += 1
      }
    }

    var v = 0
    while (v < g.n) {
      onPath(v) = true; path += v
      dfs(v, v)
      path.clear(); onPath(v) = false
      v += 1
    }
    res.result()
  }

  /** Plain bounded DFS: does ANY constrained cycle exist among `allowed`
    * vertices? One [[FindCycle]] tries every allowed vertex in turn.
    * Worst-case exponential in k — reference implementation only.
    */
  def existsConstrainedCycle(g: DirectedGraph, k: Int, minLen: Int,
                             allowed: Array[Boolean]): Boolean = {
    val find = new FindCycle(g, k, minLen)
    (0 until g.n).exists(v => allowed(v) && find.existsCycleThrough(v, allowed))
  }
}
