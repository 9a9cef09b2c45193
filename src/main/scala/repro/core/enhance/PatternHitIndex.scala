package repro.core.enhance

import repro.core.{Pattern, PatternBits}

/** The per-(attribute, value) inverted indices over the patterns to hit
  * (paper §IV-B, Fig 9): bit `j` of `index(i)(v)` is 1 iff pattern `j` has
  * `X` or value `v` at position `i` — i.e. a value combination with `v` on
  * `A_i` can still hit pattern `j`. These are the `hit` vectors of a
  * [[PatternBits]] over the patterns.
  */
final class PatternHitIndex(patterns: IndexedSeq[Pattern], cards: IndexedSeq[Int]) {
  private val bits = new PatternBits(cards)
  patterns.foreach(p => bits.add(p.elems))

  val words: Int = bits.words

  /** index(i)(v): Long-word bit vector with at least [[words]] words. */
  val index: Array[Array[Array[Long]]] = bits.hit

  /** A filter with every pattern still unhit. */
  def fullFilter: Array[Long] = bits.allInto(new Array[Long](words))

  /** dst = a AND index(i)(v) on the first [[words]] words; returns the
    * popcount of dst.
    */
  def andInto(a: Array[Long], i: Int, v: Int, dst: Array[Long]): Int = {
    val vec = index(i)(v)
    var cnt = 0
    var w = 0
    while (w < words) {
      val x = a(w) & vec(w)
      dst(w) = x
      cnt += java.lang.Long.bitCount(x)
      w += 1
    }
    cnt
  }

  /** The set bits (pattern ids) a fully specified combination hits within
    * `filter`: `filter` AND the patterns that generalize the combination.
    */
  def hitsOf(combo: IndexedSeq[Int], filter: Array[Long]): Array[Long] = {
    val out  = new Array[Long](words)
    val hits = bits.above(Pattern(combo.toVector))
    if (hits != null) PatternBits.and(filter, hits, out, words)
    out
  }

  def popcount(v: Array[Long]): Int = {
    var c = 0
    var w = 0
    while (w < v.length) { c += java.lang.Long.bitCount(v(w)); w += 1 }
    c
  }
}
