package repro.core

/** The bit matrix behind the three inverted indices of the paper: per
  * (attribute, value) a bit vector over a list of items, ANDed along a
  * pattern. The items are value combinations (Appendix A, `cov`), the MUPs
  * found so far (Appendix B, dominance) or the patterns to hit (§IV-B, Fig 9).
  *
  * Items are patterns appended in order (bit `j` is item `j`); a value
  * combination is a pattern with no `X`, and code [[Pattern.X]] is `X`. The
  * vectors are:
  *
  *  - `hit(i)(v)`: the items whose value at attribute `i` is `v` or `X`, the
  *    items a value `v` at `i` can still match;
  *  - `x(i)`: the items whose value at attribute `i` is `X`.
  *
  * Every vector is a primitive `Array[Long]` of one shared capacity that
  * doubles when the item count outgrows it; words past the live count
  * [[words]] stay zero. The two queries AND into one scratch buffer over the
  * live words and allocate nothing; their result is valid until the next
  * query or [[add]], so one instance must not be used from two threads.
  */
final class PatternBits(val cards: IndexedSeq[Int]) {
  private val dim = cards.length
  private var n = 0

  /** Allocated words per vector (≥ [[words]]). */
  private var capacity = 1

  /** hit(i)(v) for v in 0..c_i-1: the items with `v` or `X` at `i`. */
  val hit: Array[Array[Array[Long]]] =
    Array.tabulate(dim)(i => Array.fill(cards(i))(new Array[Long](capacity)))

  /** x(i): the items with `X` at `i`. */
  val x: Array[Array[Long]] = Array.fill(dim)(new Array[Long](capacity))

  /** Scratch buffer the queries AND into. */
  private var acc = new Array[Long](capacity)

  /** Number of items. */
  def size: Int = n

  /** Live words per vector: ⌈size / 64⌉. */
  def words: Int = (n + 63) >>> 6

  /** Append an item: `elems(i)` is a value in `[0, c_i)` or [[Pattern.X]].
    * A rejected item leaves every vector as it was.
    */
  def add(elems: collection.IndexedSeq[Int]): Unit = {
    require(elems.length == dim, s"pattern dim ${elems.length} != $dim")
    for (i <- 0 until dim)
      require(elems(i) >= Pattern.X && elems(i) < cards(i),
        s"value ${elems(i)} out of range [0, ${cards(i)}) for attribute $i")
    val word = n >>> 6
    if (word == capacity) grow()
    val bit = 1L << (n & 63)
    var i = 0
    while (i < dim) {
      val e = elems(i)
      val h = hit(i)
      if (e == Pattern.X) {
        x(i)(word) |= bit
        var v = 0
        while (v < h.length) { h(v)(word) |= bit; v += 1 }
      } else h(e)(word) |= bit
      i += 1
    }
    n += 1
  }

  private def grow(): Unit = {
    capacity *= 2
    for (vecs <- hit :+ x; s <- vecs.indices)
      vecs(s) = java.util.Arrays.copyOf(vecs(s), capacity)
    acc = new Array[Long](capacity)
  }

  /** dst = every item over the first [[words]] words: all ones, the bits past
    * the last item cleared. Returns `dst`.
    */
  def allInto(dst: Array[Long]): Array[Long] = {
    val w = words
    java.util.Arrays.fill(dst, 0, w, -1L)
    val extra = (w << 6) - n
    if (extra > 0) dst(w - 1) = -1L >>> extra
    dst
  }

  /** The items that agree with `p` wherever p is deterministic (value `p_i`
    * or `X` there): the AND of `hit(i)(p_i)` over p's deterministic elements.
    * For items without `X` these are exactly the items `p` generalizes.
    * Returns a vector whose first [[words]] words hold the set (an index
    * vector itself when only one vector is ANDed), or `null` as soon as the
    * set is empty.
    */
  def below(p: Pattern): Array[Long] = andAlong(p, up = false)

  /** The items that generalize `p`: the AND of `x(i)` where p has `X` and of
    * `hit(i)(p_i)` elsewhere. Same result convention as [[below]].
    */
  def above(p: Pattern): Array[Long] = andAlong(p, up = true)

  private def andAlong(p: Pattern, up: Boolean): Array[Long] = {
    val w = words
    var v: Array[Long] = null
    var i = 0
    while (i < dim) {
      val e = p.elems(i)
      val vec = if (e != Pattern.X) hit(i)(e) else if (up) x(i) else null
      if (vec != null) {
        if (v == null) v = vec
        else if (PatternBits.and(v, vec, acc, w)) v = acc
        else return null
      }
      i += 1
    }
    if (v == null) allInto(acc) else v
  }
}

object PatternBits {
  /** dst = a & b over the first `n` words; returns whether any bit survives. */
  def and(a: Array[Long], b: Array[Long], dst: Array[Long], n: Int): Boolean = {
    var any = 0L
    var w = 0
    while (w < n) {
      val x = a(w) & b(w)
      dst(w) = x
      any |= x
      w += 1
    }
    any != 0L
  }
}
