package repro.core

/** Visit budget for worst-case-exponential searches (plain DFS in BUR/TDB,
  * DARC's line-graph search). The paper's baselines simply run for hours or
  * never finish on large graphs (rendered as "-"); the benchmark harness
  * threads a budget through instead, so a blow-up surfaces as a DNF row in
  * bounded time rather than a hung build. Budgets are NEVER applied in
  * correctness tests — exceeding one throws, it does not truncate results.
  */
final class SearchBudget(val limit: Long) {
  private var used = 0L

  @inline def spend(): Unit = {
    used += 1
    if (used > limit) throw new SearchBudget.Exceeded(limit)
  }
}

object SearchBudget {
  final class Exceeded(val limit: Long)
      extends RuntimeException(s"search budget of $limit visits exceeded")

  /** No budget: searches run to completion. A fresh instance per call, so
    * default arguments never share a `used` counter.
    */
  def Unlimited: SearchBudget = new SearchBudget(Long.MaxValue)
}
