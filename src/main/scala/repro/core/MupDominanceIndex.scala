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
  *  - `dominatesSome(P)`: ∃ MUP m strictly dominated by P — among the MUPs
  *    that agree with P on P's deterministic values (`below`: AND of the
  *    value-or-`X` vectors there), one that P dominates. In DEEPDIVER's DFS
  *    order it is never true, so only this index's spec and the benchmark's
  *    dominance probe call it.
  *
  * Strictness (a pattern neither dominates nor is dominated by itself) is
  * enforced on the candidate bits: `dominatedBySome` skips the MUP equal to
  * P, `dominatesSome` keeps a candidate only when P dominates it. A check
  * allocates nothing.
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
    mupList.nonEmpty && anySet(bits.below(p), p, down = true)

  /** True iff some indexed MUP *strictly* dominates `p`. */
  def dominatedBySome(p: Pattern): Boolean =
    mupList.nonEmpty && anySet(bits.above(p), p, down = false)

  /** Any bit set in `v` (null: none) whose MUP `p` dominates (`down`) or,
    * as every candidate of `above` generalizes `p`, differs from `p`?
    */
  private def anySet(v: Array[Long], p: Pattern, down: Boolean): Boolean = {
    if (v == null) return false
    val n = bits.words
    var w = 0
    while (w < n) {
      var word = v(w)
      while (word != 0L) {
        val t = java.lang.Long.numberOfTrailingZeros(word)
        val m = mupList((w << 6) + t)
        if (if (down) p.dominates(m) else m != p) return true
        word &= word - 1
      }
      w += 1
    }
    false
  }
}
