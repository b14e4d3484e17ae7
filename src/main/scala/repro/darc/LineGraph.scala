package repro.darc

import repro.core.DirectedGraph

/** Implicit directed line graph of a [[DirectedGraph]].
  *
  * The paper's DARC-DV baseline converts the vertex-cover problem into the
  * edge-cover problem DARC solves: each edge e(u,v) of G becomes a line
  * node, and a line arc connects e(u,v) -> e(v,w) "via" the shared vertex v.
  * A simple cycle of length L in G maps to a simple cycle of L line nodes,
  * so a line-ARC subset hitting all constrained line cycles maps (arc ->
  * via-vertex) to a vertex subset hitting all constrained cycles of G.
  *
  * We never materialise the arc set: a line node is simply an index into
  * G's flattened out-adjacency (`outAdj`), because position i in `outAdj`
  * uniquely determines the edge src(i) -> outAdj(i). The out-arcs of line
  * node a are exactly the positions in `outAdj` belonging to src = dst(a) —
  * a contiguous CSR slice. Arc (a, b) is encoded as the Long a<<32|b.
  */
final class LineGraph(val g: DirectedGraph) {

  /** Number of line nodes = number of edges of G. */
  val size: Int = g.m

  /** dst of the G-edge behind each line node (shared with G's CSR). */
  def eDst(e: Int): Int = g.outAdj(e)

  /** Total number of line arcs, Σ_v in(v)·out(v) — the DARC-DV blow-up. */
  def arcCount: Long = {
    var s = 0L
    var v = 0
    while (v < g.n) { s += g.inDeg(v).toLong * g.outDeg(v); v += 1 }
    s
  }

  /** Out-arcs of line node `a` are line nodes in [outLo(a), outHi(a)). */
  @inline def outLo(a: Int): Int = g.outOff(eDst(a))
  @inline def outHi(a: Int): Int = g.outOff(eDst(a) + 1)

  /** The G-vertex an arc (a, b) passes through (the DARC-DV result mapping). */
  @inline def viaVertex(a: Int): Int = eDst(a)

  @inline def encode(a: Int, b: Int): Long = (a.toLong << 32) | (b.toLong & 0xffffffffL)
  @inline def arcFrom(enc: Long): Int = (enc >>> 32).toInt
  @inline def arcTo(enc: Long): Int = (enc & 0xffffffffL).toInt
}
