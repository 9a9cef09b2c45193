package repro.core

import scala.collection.mutable.ArrayBuffer

/** Incremental MUP-dominance index (paper Appendix B).
  *
  * Maintains, for every attribute, one bit vector per value plus one for `X`,
  * each over the MUPs discovered so far (bit `j` is MUP number `j` in
  * insertion order). Supports the two checks DEEPDIVER issues per node
  * (Definition 9):
  *
  *  - `dominatesSome(P)`: ∃ MUP m strictly dominated by P — AND the vectors of
  *    P's deterministic values (X elements of P impose nothing).
  *  - `dominatedBySome(P)`: ∃ MUP m strictly dominating P — AND over all
  *    attributes of (vector for X) for P's X elements and (vector for value ∨
  *    vector for X) for P's deterministic elements.
  *
  * Strictness (a pattern neither dominates nor is dominated by itself) is
  * enforced by excluding exact-equal MUPs from the raw generalizes-check.
  *
  * Every vector is a primitive `Array[Long]` of a shared capacity that doubles
  * when the MUP count outgrows it; words past the live count `⌈size/64⌉` stay
  * zero. Both checks AND into one reusable accumulator over the live words
  * only, so a check allocates nothing.
  */
final class MupDominanceIndex(cards: IndexedSeq[Int]) {
  private val dim = cards.length

  /** Allocated words per vector (≥ the live word count). */
  private var capacity = 1

  /** vec(i)(v) for v in 0..c_i-1; vec(i)(c_i) is the `X` slot. */
  private val vec: Array[Array[Array[Long]]] =
    Array.tabulate(dim)(i => Array.fill(cards(i) + 1)(new Array[Long](capacity)))

  /** Scratch accumulator shared by the two checks. */
  private var acc = new Array[Long](capacity)

  private val mupList = ArrayBuffer.empty[Pattern]

  /** Number of MUPs indexed. */
  def size: Int = mupList.size

  /** The indexed MUPs in insertion order. */
  def mups: Seq[Pattern] = mupList.toSeq

  /** Add a newly discovered MUP: set its bit in the matching value/X vector of
    * every attribute (every other vector keeps a clear bit).
    */
  def add(p: Pattern): Unit = {
    val idx  = mupList.size
    val word = idx >>> 6
    if (word == capacity) grow()
    val bit = 1L << (idx & 63)
    mupList += p
    var i = 0
    while (i < dim) {
      val e = p.elems(i)
      vec(i)(if (e == Pattern.X) cards(i) else e)(word) |= bit
      i += 1
    }
  }

  private def grow(): Unit = {
    capacity *= 2
    var i = 0
    while (i < dim) {
      val slots = vec(i)
      var s = 0
      while (s < slots.length) { slots(s) = java.util.Arrays.copyOf(slots(s), capacity); s += 1 }
      i += 1
    }
    acc = new Array[Long](capacity)
  }

  private def words: Int = (mupList.size + 63) >>> 6

  /** True iff some indexed MUP is *strictly* dominated by `p`
    * (i.e. p generalizes it and is not equal to it).
    */
  def dominatesSome(p: Pattern): Boolean = {
    if (mupList.isEmpty) return false
    val n = words
    resetAcc(n)
    var i = 0
    while (i < dim) {
      val e = p.elems(i)
      if (e != Pattern.X) {
        // a dominated m must have exactly value e at i (an X there would make
        // m strictly more general at i, so p could not generalize it)
        if (!andOne(vec(i)(e), n)) return false
      }
      i += 1
    }
    // acc marks MUPs generalized by p; exclude p itself (equal pattern).
    anySetExcluding(p, n)
  }

  /** True iff some indexed MUP *strictly* dominates `p`. */
  def dominatedBySome(p: Pattern): Boolean = {
    if (mupList.isEmpty) return false
    val n = words
    resetAcc(n)
    var i = 0
    while (i < dim) {
      val e = p.elems(i)
      if (e == Pattern.X) {
        // a dominating m must have X at i
        if (!andOne(vec(i)(cards(i)), n)) return false
      } else {
        // m may have X or the same value at i
        if (!andOr(vec(i)(e), vec(i)(cards(i)), n)) return false
      }
      i += 1
    }
    anySetExcluding(p, n)
  }

  /** acc = all indexed MUPs: the first `n` words set, the bits past the last
    * MUP in word `n - 1` cleared.
    */
  private def resetAcc(n: Int): Unit = {
    java.util.Arrays.fill(acc, 0, n, -1L)
    val extra = (n << 6) - mupList.size
    if (extra > 0) acc(n - 1) = -1L >>> extra
  }

  /** acc &= a over the first `n` words; returns whether any bit survives. */
  private def andOne(a: Array[Long], n: Int): Boolean = {
    var any = 0L
    var w = 0
    while (w < n) {
      val x = acc(w) & a(w)
      acc(w) = x
      any |= x
      w += 1
    }
    any != 0L
  }

  /** acc &= (a | b) over the first `n` words; returns whether any bit survives. */
  private def andOr(a: Array[Long], b: Array[Long], n: Int): Boolean = {
    var any = 0L
    var w = 0
    while (w < n) {
      val x = acc(w) & (a(w) | b(w))
      acc(w) = x
      any |= x
      w += 1
    }
    any != 0L
  }

  /** Any bit set in the first `n` words of acc whose MUP differs from `p`? */
  private def anySetExcluding(p: Pattern, n: Int): Boolean = {
    var w = 0
    while (w < n) {
      var word = acc(w)
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
