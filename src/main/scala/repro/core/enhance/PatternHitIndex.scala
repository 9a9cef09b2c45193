package repro.core.enhance

import repro.core.Pattern

/** The per-(attribute, value) inverted indices over the patterns to hit
  * (paper §IV-B, Fig 9): bit `j` of `index(i)(v)` is 1 iff pattern `j` has
  * `X` or value `v` at position `i` — i.e. a value combination with `v` on
  * `A_i` can still hit pattern `j`.
  */
final class PatternHitIndex(val patterns: IndexedSeq[Pattern], val cards: IndexedSeq[Int]) {
  val m: Int = patterns.length
  val words: Int = (m + 63) >>> 6
  private val dim = cards.length

  /** index(i)(v): Long-word bit vector of length [[words]]. */
  val index: Array[Array[Array[Long]]] =
    Array.tabulate(dim)(i => Array.ofDim[Long](cards(i), words))

  {
    for (j <- patterns.indices) {
      val p = patterns(j)
      require(p.dim == dim, s"pattern dim ${p.dim} != $dim")
      val word = j >>> 6
      val bit  = 1L << (j & 63)
      for (i <- 0 until dim) {
        val e = p.elems(i)
        if (e == Pattern.X) {
          var v = 0
          while (v < cards(i)) { index(i)(v)(word) |= bit; v += 1 }
        } else index(i)(e)(word) |= bit
      }
    }
  }

  /** A filter with every pattern still unhit. */
  def fullFilter: Array[Long] = {
    val f = Array.fill(words)(-1L)
    val extra = (words << 6) - m
    if (words > 0 && extra > 0) f(words - 1) &= -1L >>> extra
    f
  }

  /** Every word index `0 until words`: the default word list of [[andInto]]. */
  private val allWords: Array[Int] = Array.range(0, words)

  /** Write the indices of the non-zero words of `filter` to the front of
    * `live`; returns how many there are.
    */
  def liveWords(filter: Array[Long], live: Array[Int]): Int = {
    var n = 0
    var w = 0
    while (w < words) {
      if (filter(w) != 0L) { live(n) = w; n += 1 }
      w += 1
    }
    n
  }

  /** dst = a AND index(i)(v) on the words `live(0 until n)` (by default every
    * word); returns the popcount of those words of dst. Other words of dst are
    * left untouched, so the result is exact when `a` is zero outside them.
    */
  def andInto(a: Array[Long], i: Int, v: Int, dst: Array[Long],
              live: Array[Int] = allWords, n: Int = words): Int = {
    val vec = index(i)(v)
    var cnt = 0
    var k = 0
    while (k < n) {
      val w = live(k)
      val x = a(w) & vec(w)
      dst(w) = x
      cnt += java.lang.Long.bitCount(x)
      k += 1
    }
    cnt
  }

  /** The set bits (pattern ids) a fully specified combination hits within
    * `filter`: AND of the combination's value vectors with `filter`.
    */
  def hitsOf(combo: IndexedSeq[Int], filter: Array[Long]): Array[Long] = {
    val acc = filter.clone()
    var i = 0
    while (i < dim) {
      andInto(acc, i, combo(i), acc)
      i += 1
    }
    acc
  }

  def popcount(v: Array[Long]): Int = {
    var c = 0
    var w = 0
    while (w < v.length) { c += java.lang.Long.bitCount(v(w)); w += 1 }
    c
  }
}
