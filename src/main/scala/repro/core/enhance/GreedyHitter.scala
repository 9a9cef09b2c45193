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
  * branch is pruned as soon as that bound cannot beat the incumbent. The pick
  * is the first maximum in this visit order (the tie-break): pruning never
  * cuts a strictly better leaf, so the unpruned walk in the same order (the
  * naive greedy of §IV-A, the tests' reference) picks the same one.
  *
  * Each round starts knowing its answer. While the combo space `Π c_i` fits
  * `Pattern.DenseCells`, GREEDY keeps the naive greedy's per-combination hit
  * counts as one dense array in lexicographic combination order: filled once
  * (each pattern adds 1 to every combination it matches) and, each round,
  * lowered by the patterns the pick hit. Its maximum M is the round's best
  * count, so the search starts with incumbent M − 1 and stops at the first
  * leaf that reaches M. Subtrees whose bound is below M hold no maximum, so
  * that leaf is the first maximum in visit order and the pick is the same as
  * without the bound. A subtree's combinations are one range of cells, so a
  * child is also skipped when no count in its range reaches M: the first
  * child entered holds the round's first maximum, and a round walks one
  * root-to-leaf path. Above the budget a round starts at incumbent 0 and
  * prunes by the filter bounds alone.
  *
  * One search serves every round of a run. It owns one child-filter buffer
  * per (depth, value), allocated once.
  */
object GreedyHitter {

  /** Result: combinations to collect plus work counters for the benches. */
  final case class Result(combos: Vector[Vector[Int]], nodesExplored: Long)

  /** The largest `Π (c_i + 1)` over the leaf counts' low block. */
  private val LowCells = 1 << 16

  /** Run GREEDY over the patterns to hit. Returns the chosen combinations in
    * selection order. Patterns must be non-empty-hittable (every pattern is
    * hit by at least one combination — always true for patterns over the same
    * attribute domain).
    */
  def run(patterns: IndexedSeq[Pattern], cards: IndexedSeq[Int]): Result =
    run(patterns, cards, Pattern.DenseCells)

  /** [[run]] with the leaf-count bound kept only while `Π c_i <= leafBudget`. */
  private[enhance] def run(patterns: IndexedSeq[Pattern], cards: IndexedSeq[Int], leafBudget: Long): Result = {
    for (i <- cards.indices)
      require(cards(i) >= 1, s"attribute $i has cardinality ${cards(i)}; every cardinality must be at least 1")
    if (patterns.isEmpty) return Result(Vector.empty, 0L)
    val idx    = new PatternHitIndex(patterns, cards)
    val leaves = Option.when(Pattern.combosWithin(cards, leafBudget))(new LeafCounts(cards, patterns))
    val filter = idx.fullFilter
    val search = new HitCountSearch(idx, cards, leaves.orNull)
    val out    = Vector.newBuilder[Vector[Int]]
    // The round's maximum M. Cells only decrease, so no cell exceeds the
    // last round's M.
    var m = patterns.length

    while (idx.popcount(filter) > 0) {
      val floor = leaves.fold(0) { l => m = l.max(m); m - 1 }
      val count = search.best(filter, floor)
      require(count > floor, s"no combination hits more than $floor remaining patterns")
      val combo = search.bestCombo
      out += combo
      // Clear the patterns this combination hits.
      val hit = idx.hitsOf(combo, filter)
      leaves.foreach(_.remove(hit))
      var w = 0
      while (w < filter.length) { filter(w) &= ~hit(w); w += 1 }
    }
    Result(out.result(), search.nodes)
  }

  /** The unhit patterns matching each value combination: the naive greedy's
    * hit counts (§IV-A), kept incrementally. A combination's cell is
    * `Σ v_i · stride(i)`, with attribute 0 the most significant digit, so
    * cells are in lexicographic combination order. `patterns(j)` is pattern
    * `j` of the hit index. The caller keeps `Π c_i` within an `Int`.
    *
    * A pattern's combinations are its base cell plus every sum of
    * `v · stride(i)` over its X attributes. The trailing attributes whose
    * `Π (c_i + 1)` fits [[LowCells]] form a low block: each X set within it
    * has one table of those sums, built on first use, so a pattern's
    * combinations are a walk over its other X attributes with one table loop
    * at each step.
    */
  private final class LeafCounts(cards: IndexedSeq[Int], patterns: IndexedSeq[Pattern]) {
    private val card   = cards.toArray
    private val d      = card.length
    private val suffix = Pattern.comboStrides(cards)
    private val stride = suffix.tail
    private val cells  = new Array[Int](suffix(0))
    /** elems(j * d + i): element `i` of pattern `j` of the hit index. */
    private val elems  = {
      val out = new Array[Int](patterns.length * d)
      var j = 0
      patterns.foreach { p => p.elems.copyToArray(out, j * d); j += 1 }
      out
    }
    /** The low block is attributes `low until d`. */
    private val low    = {
      var i = d
      var size = 1L
      while (i > 0 && size * (card(i - 1) + 1) <= LowCells) { size *= card(i - 1) + 1; i -= 1 }
      i
    }
    /** tables(s): the offsets of the X set `s` (bit `i - low` for attribute `i`). */
    private val tables = new Array[Array[Int]](1 << (d - low))
    /** The X attributes before the low block of the pattern being added. */
    private val xs     = new Array[Int](d)

    patterns.indices.foreach(add(_, 1))

    /** The most unhit patterns one combination matches, given that no cell
      * holds more than `upper`: the scan stops at the first cell that holds
      * `upper`.
      */
    def max(upper: Int): Int = {
      var m = 0
      var k = 0
      while (k < cells.length && m < upper) { if (cells(k) > m) m = cells(k); k += 1 }
      m
    }

    /** Whether some combination that starts with `prefix(0 until len)`
      * matches at least `m` unhit patterns. Those combinations are one range
      * of cells.
      */
    def reaches(prefix: Array[Int], len: Int, m: Int): Boolean = {
      var lo = 0
      var i  = 0
      while (i < len) { lo += prefix(i) * stride(i); i += 1 }
      val hi = lo + stride(len - 1)
      var k = lo
      while (k < hi) { if (cells(k) >= m) return true; k += 1 }
      false
    }

    /** Take the patterns whose bits are set in `hit` out of the counts. */
    def remove(hit: Array[Long]): Unit = {
      var w = 0
      while (w < hit.length) {
        var b = hit(w)
        while (b != 0L) {
          add((w << 6) + java.lang.Long.numberOfTrailingZeros(b), -1)
          b &= b - 1
        }
        w += 1
      }
    }

    /** Add `delta` to every combination pattern `j` matches. */
    private def add(j: Int, delta: Int): Unit = {
      val at   = j * d
      var base = 0
      var nx   = 0
      var set  = 0
      var i    = 0
      while (i < d) {
        val e = elems(at + i)
        if (e != Pattern.X) base += e * stride(i)
        else if (i >= low) set |= 1 << (i - low)
        else { xs(nx) = i; nx += 1 }
        i += 1
      }
      spread(base, nx - 1, table(set), delta)
    }

    /** Add `delta` at `off` plus each of `offsets` plus every sum the X
      * attributes `xs(0..k)` can contribute.
      */
    private def spread(off: Int, k: Int, offsets: Array[Int], delta: Int): Unit =
      if (k < 0) {
        var j = 0
        while (j < offsets.length) { cells(off + offsets(j)) += delta; j += 1 }
      } else {
        val a = xs(k)
        var o = off
        var v = 0
        while (v < card(a)) { spread(o, k - 1, offsets, delta); o += stride(a); v += 1 }
      }

    private def table(set: Int): Array[Int] = {
      if (tables(set) == null) {
        var offs = Array(0)
        for (i <- low until d if (set >> (i - low) & 1) == 1)
          offs = offs.flatMap(o => Array.tabulate(card(i))(o + _ * stride(i)))
        tables(set) = offs
      }
      tables(set)
    }
  }

  /** Algorithm 4 over the whole tree, reusable across rounds. With `leaves`
    * (null above the leaf budget) a child is entered only if its range of
    * leaf counts reaches the incumbent plus one.
    */
  private final class HitCountSearch(idx: PatternHitIndex, cards: IndexedSeq[Int], leaves: LeafCounts) {
    private val d = cards.length
    /** Tree nodes visited over all rounds. */
    var nodes = 0L

    /** bufs(i)(v): filter of the child taking value v at depth i. */
    private val bufs   = Array.tabulate(d)(i => Array.fill(cards(i))(new Array[Long](idx.words)))
    private val counts = Array.tabulate(d)(i => new Array[Int](cards(i)))
    private val order  = Array.tabulate(d)(i => new Array[Int](cards(i)))

    private val prefix    = new Array[Int](d)
    private val best      = new Array[Int](d)
    private var bestCount = 0

    /** The combination found by the last [[best]] call. */
    def bestCombo: Vector[Int] = best.toVector

    /** The most patterns of `filter` one combination hits, if more than
      * `floor`; the combination is then [[bestCombo]] (the first maximum in
      * visit order). Returns `floor` when no combination beats it.
      */
    def best(filter: Array[Long], floor: Int): Int = {
      bestCount = floor
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
        cs(v) = idx.andInto(filter, i, v, fs(v))
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
        if (leaves == null || leaves.reaches(prefix, i + 1, bestCount + 1)) {
          if (i == d - 1) {
            nodes += 1
            bestCount = cs(v)
            System.arraycopy(prefix, 0, best, 0, d)
          } else descend(fs(v), i + 1)
        }
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
