package repro.core.enhance

import repro.core.Pattern

/** The efficient greedy hitting-set of paper §IV-B (Algorithms 4 and 5).
  *
  * GREEDY repeatedly asks `hit-count` for the value combination hitting the
  * most still-unhit patterns, clears those patterns from the filter, and
  * stops when every pattern is hit. `hit-count` walks the value-combination
  * tree (Fig 10) depth-first, carrying the AND of the inverted indices along
  * the path as a bit-vector filter; children are visited in descending order
  * of their remaining-hit upper bound (ties toward the lower value) and a
  * branch is pruned as soon as that bound cannot beat the best complete
  * combination found so far. The pick is the first maximum in this visit
  * order (the tie-break): pruning never cuts a strictly better leaf, so the
  * unpruned walk in the same order (the naive greedy of §IV-A, the tests'
  * reference) picks the same one.
  *
  * One search serves every round of a run. It owns one child-filter buffer
  * per (depth, value), allocated once, and a round touches only the words
  * that are non-zero in that round's filter: every node's filter is a subset
  * of the round filter, so the other words are zero throughout the round.
  */
object GreedyHitter {

  /** Result: combinations to collect plus work counters for the benches. */
  final case class Result(combos: Vector[Vector[Int]], nodesExplored: Long)

  /** Run GREEDY over the patterns to hit. Returns the chosen combinations in
    * selection order. Patterns must be non-empty-hittable (every pattern is
    * hit by at least one combination — always true for patterns over the same
    * attribute domain).
    */
  def run(patterns: IndexedSeq[Pattern], cards: IndexedSeq[Int]): Result = {
    if (patterns.isEmpty) return Result(Vector.empty, 0L)
    val idx    = new PatternHitIndex(patterns, cards)
    val filter = idx.fullFilter
    val search = new HitCountSearch(idx, cards)
    val out    = Vector.newBuilder[Vector[Int]]

    while (idx.popcount(filter) > 0) {
      val count = search.best(filter)
      require(count > 0, "no combination hits any remaining pattern")
      val combo = search.bestCombo
      out += combo
      // Clear the patterns this combination hits.
      val hit = idx.hitsOf(combo, filter)
      var w = 0
      while (w < filter.length) { filter(w) &= ~hit(w); w += 1 }
    }
    Result(out.result(), search.nodes)
  }

  /** Algorithm 4 over the whole tree, reusable across rounds. */
  private final class HitCountSearch(idx: PatternHitIndex, cards: IndexedSeq[Int]) {
    private val d = cards.length
    /** Tree nodes visited over all rounds. */
    var nodes = 0L

    /** bufs(i)(v): filter of the child taking value v at depth i. */
    private val bufs   = Array.tabulate(d)(i => Array.fill(cards(i))(new Array[Long](idx.words)))
    private val counts = Array.tabulate(d)(i => new Array[Int](cards(i)))
    private val order  = Array.tabulate(d)(i => new Array[Int](cards(i)))
    private val live   = new Array[Int](idx.words)
    private var liveN  = 0

    private val prefix    = new Array[Int](d)
    private val best      = new Array[Int](d)
    private var bestCount = 0

    /** The combination found by the last [[best]] call. */
    def bestCombo: Vector[Int] = best.toVector

    /** The most patterns of `filter` one combination hits; the combination
      * is then [[bestCombo]] (the first maximum in visit order).
      */
    def best(filter: Array[Long]): Int = {
      liveN = idx.liveWords(filter, live)
      bestCount = 0
      descend(filter, 0)
      bestCount
    }

    private def descend(filter: Array[Long], i: Int): Unit = {
      nodes += 1
      if (i == d) {
        val cnt = idx.popcount(filter)
        if (cnt > bestCount) bestCount = cnt
        return
      }
      // Compute each child's filter and upper bound, then visit descending.
      val c  = cards(i)
      val fs = bufs(i)
      val cs = counts(i)
      val ord = order(i)
      var v = 0
      while (v < c) {
        cs(v) = idx.andInto(filter, i, v, fs(v), live, liveN)
        v += 1
      }
      sortByCountDesc(ord, cs)
      // The popcount of the child's filter is an upper bound on what any
      // completion can hit; children come in descending bound, so the first
      // one that cannot beat the incumbent ends the loop. (At the last level
      // the bound is exact, so > keeps the first maximum and ties break
      // toward lexicographically earlier combos.)
      var k = 0
      while (k < c && cs(ord(k)) > bestCount) {
        val v = ord(k)
        prefix(i) = v
        if (i == d - 1) {
          nodes += 1
          bestCount = cs(v)
          System.arraycopy(prefix, 0, best, 0, d)
        } else descend(fs(v), i + 1)
        k += 1
      }
    }

    /** ord = 0 until ord.length, stably sorted by descending cs (insertion
      * sort: fan-outs are small).
      */
    private def sortByCountDesc(ord: Array[Int], cs: Array[Int]): Unit = {
      var k = 0
      while (k < ord.length) {
        val key = cs(k)
        var j = k - 1
        while (j >= 0 && cs(ord(j)) < key) { ord(j + 1) = ord(j); j -= 1 }
        ord(j + 1) = k
        k += 1
      }
    }
  }
}
