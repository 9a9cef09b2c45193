package repro.core

import scala.collection.mutable.ArrayBuffer

/** Incremental MUP-dominance index (paper Appendix B).
  *
  * A [[PatternBits]] over the MUPs discovered so far (bit `j` is MUP number
  * `j` in insertion order). Supports the two checks of Definition 9:
  *
  *  - `dominatedBySome(P)`: ∃ MUP m strictly dominating P — the MUPs that
  *    generalize P (`above`: AND of the `X` vector where P has `X` and the
  *    value-or-`X` vector elsewhere). DEEPDIVER issues it per node.
  *  - `dominatesSome(P)`: ∃ MUP m strictly dominated by P — the MUPs that P
  *    generalizes (`below`: AND of the value-or-`X` vectors at P's
  *    deterministic values, each word masked with the complement of the `X`
  *    vectors there). In DEEPDIVER's DFS order it is never true, so only
  *    this index's spec and the benchmark's dominance probe call it.
  *
  * Either way every candidate bit is a MUP comparable to P, so strictness
  * (a pattern neither dominates nor is dominated by itself) is one test: the
  * candidate differs from P. A check allocates nothing and writes into no
  * index vector.
  */
final class MupDominanceIndex(cards: IndexedSeq[Int]) {
  private val bits    = new PatternBits(cards)
  private val mupList = ArrayBuffer.empty[Pattern]

  /** Number of MUPs indexed. */
  def size: Int = mupList.size

  /** The indexed MUPs in insertion order. */
  def mups: Seq[Pattern] = mupList.toSeq

  /** Add a newly discovered MUP. */
  def add(p: Pattern): Unit = {
    bits.add(p.elems)
    mupList += p
  }

  /** True iff some indexed MUP is *strictly* dominated by `p`
    * (i.e. p generalizes it and is not equal to it).
    */
  def dominatesSome(p: Pattern): Boolean =
    mupList.nonEmpty && anyOther(bits.below(p), p, below = true)

  /** True iff some indexed MUP *strictly* dominates `p`. */
  def dominatedBySome(p: Pattern): Boolean =
    mupList.nonEmpty && anyOther(bits.above(p), p, below = false)

  /** Any MUP other than `p` among the bits set in `v` (null: none)? With
    * `below`, a MUP with `X` at one of p's deterministic elements is masked
    * out as the word is read; `v` may be an index vector and is not written.
    */
  private def anyOther(v: Array[Long], p: Pattern, below: Boolean): Boolean = {
    if (v == null) return false
    val n = bits.words
    var w = 0
    while (w < n) {
      var word = v(w)
      var i = 0
      while (below && word != 0L && i < cards.length) {
        if (p.isDet(i)) word &= ~bits.x(i)(w)
        i += 1
      }
      while (word != 0L) {
        val t = java.lang.Long.numberOfTrailingZeros(word)
        if (mupList((w << 6) + t) != p) return true
        word &= word - 1
      }
      w += 1
    }
    false
  }
}
