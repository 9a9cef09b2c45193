package repro.core

/** The inverted-index coverage oracle of Appendix A.
  *
  * For every (attribute `i`, value `v`) a bit vector `bits(i)(v)` marks the
  * distinct value combinations whose i-th value is `v`. `cov(P)` ANDs the
  * vectors of P's deterministic elements and takes the weighted popcount
  * against the per-combo tuple counts.
  *
  * Storage is O(c·d·K/64) longs for K distinct combos; each `cov` call is
  * O(ℓ(P) · K/64 + |matches|). Calls share one scratch buffer, so an index
  * must not be used from two threads at once.
  */
final class InvertedIndex(val data: CompressedData) {
  private val dim   = data.dim
  private val k     = data.combos.length
  private val words = (k + 63) >>> 6

  /** bits(i)(v) = bit vector (as Long words) over combo indices. */
  private val bits: Array[Array[Array[Long]]] =
    Array.tabulate(dim)(i => Array.ofDim[Long](data.cards(i), words))

  {
    var idx = 0
    while (idx < k) {
      val row = data.combos(idx)
      var i = 0
      while (i < dim) {
        bits(i)(row(i))(idx >>> 6) |= 1L << (idx & 63)
        i += 1
      }
      idx += 1
    }
  }

  /** Count of `cov`/`covers` invocations — benches report this as work done. */
  var covCalls: Long = 0L

  /** Scratch intersection buffer, reused by every call. */
  private val acc = new Array[Long](words)

  /** Coverage of pattern `p` (Definition 2) via AND + weighted popcount. */
  def cov(p: Pattern): Long = weightedCount(p, Long.MaxValue)

  /** Is `p` covered at threshold `tau`, i.e. `cov(p) >= tau`? The weighted
    * popcount stops as soon as the running sum reaches `tau`. Counts as one
    * cov call.
    */
  def covers(p: Pattern, tau: Long): Boolean = weightedCount(p, tau) >= tau

  /** `cov(p)` when it is below `limit`; otherwise some partial sum `>= limit`. */
  private def weightedCount(p: Pattern, limit: Long): Long = {
    covCalls += 1
    // AND the vectors of the deterministic elements.
    var first: Array[Long] = null
    var anded = false
    var i = 0
    while (i < dim) {
      val e = p.elems(i)
      if (e != Pattern.X) {
        val vec = bits(i)(e)
        if (first == null) first = vec
        else {
          val src = if (anded) acc else first
          var w = 0
          var nonzero = 0L
          while (w < words) {
            val x = src(w) & vec(w)
            acc(w) = x
            nonzero |= x
            w += 1
          }
          if (nonzero == 0L) return 0L
          anded = true
        }
      }
      i += 1
    }
    if (first == null) return data.total          // root pattern: everything matches
    val v = if (anded) acc else first
    // Weighted popcount: sum counts of set combo indices.
    var sum = 0L
    var w = 0
    while (w < words && sum < limit) {
      var word = v(w)
      while (word != 0L) {
        val t = java.lang.Long.numberOfTrailingZeros(word)
        sum += data.counts((w << 6) + t)
        word &= word - 1
      }
      w += 1
    }
    sum
  }
}
