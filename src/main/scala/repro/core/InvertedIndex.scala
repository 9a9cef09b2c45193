package repro.core

/** The inverted-index coverage oracle of Appendix A.
  *
  * A [[PatternBits]] over the distinct value combinations: `cov(P)` takes the
  * combos P generalizes (the AND of the vectors of P's deterministic
  * elements) and sums their tuple counts.
  *
  * Storage is O(c·d·K/64) longs for K distinct combos; each `cov` call is
  * O(ℓ(P) · K/64 + |matches|). Calls share one scratch buffer, so an index
  * must not be used from two threads at once.
  */
final class InvertedIndex(val data: CompressedData) {
  private val bits = new PatternBits(data.cards)
  data.combos.foreach(c => bits.add(c))

  /** Count of `cov`/`covers` invocations — benches report this as work done. */
  var covCalls: Long = 0L

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
    val v = bits.below(p)
    if (v == null) return 0L
    // Weighted popcount: sum counts of set combo indices.
    val words = bits.words
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
