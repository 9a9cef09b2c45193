package repro.core

/** A pattern over `d` categorical attributes (paper §II, Definition 1).
  *
  * `elems(i)` is either [[Pattern.X]] (non-deterministic, written `X`) or a
  * value index in `[0, c_i)` for attribute `A_i`. Values are integer-coded;
  * datasets map their categorical domains to `0..c_i-1` before search.
  *
  * Instances are immutable; `Vector` gives structural equality/hashCode so
  * patterns can key hash sets/maps directly.
  */
final case class Pattern(elems: Vector[Int]) {
  import Pattern.X

  /** Number of attributes `d`. */
  def dim: Int = elems.length

  /** Number of deterministic elements (paper's level ℓ(P)). */
  def level: Int = elems.count(_ != X)

  /** True when element `i` is deterministic (has a concrete value). */
  def isDet(i: Int): Boolean = elems(i) != X

  /** Index of the right-most deterministic element, or -1 if none. */
  def rightmostDet: Int = elems.lastIndexWhere(_ != X)

  /** Index of the right-most non-deterministic element, or -1 if none. */
  def rightmostX: Int = elems.lastIndexWhere(_ == X)

  /** Does the value combination `t` (fully specified tuple) match this pattern?
    * Definition 1: every deterministic element must equal the tuple's value.
    */
  def matches(t: IndexedSeq[Int]): Boolean = {
    var i = 0
    while (i < elems.length) {
      val e = elems(i)
      if (e != X && e != t(i)) return false
      i += 1
    }
    true
  }

  /** Does this pattern dominate `other` (this is more general, `other` more
    * specific)? P dominates P' iff every deterministic element of P agrees
    * with P' and P has strictly fewer deterministic elements.
    */
  def dominates(other: Pattern): Boolean =
    level < other.level && generalizes(other)

  /** Like [[dominates]] but allows equality (every combination matching
    * `other` also matches this).
    */
  def generalizes(other: Pattern): Boolean = {
    require(other.dim == dim, s"dimension mismatch: $dim vs ${other.dim}")
    matches(other.elems)
  }

  /** All parents (Definition 4): one deterministic element replaced by X. */
  def parents: Seq[Pattern] =
    for (i <- 0 until dim if elems(i) != X)
      yield Pattern(elems.updated(i, X))

  /** Rule 1 (top-down tree transform): children obtained by specializing only
    * the non-deterministic elements strictly to the right of the right-most
    * deterministic element. Each non-root node is generated exactly once —
    * by the parent found by X-ing its right-most deterministic element.
    */
  def childrenRule1(cards: IndexedSeq[Int]): Seq[Pattern] = {
    val from = rightmostDet + 1
    for {
      i <- from until dim if elems(i) == X
      v <- 0 until cards(i)
    } yield Pattern(elems.updated(i, v))
  }

  /** Rule 2 (bottom-up forest transform): parents obtained by X-ing only the
    * deterministic elements *with value 0* strictly to the right of the
    * right-most non-deterministic element. Each non-leaf node is generated
    * exactly once — by the child found by setting its right-most X to 0.
    */
  def parentsRule2: Seq[Pattern] = {
    val from = rightmostX + 1
    for (i <- from until dim if elems(i) == 0)
      yield Pattern(elems.updated(i, Pattern.X))
  }

  /** Number of value combinations matching this pattern (Definition 7):
    * product of the cardinalities of the non-deterministic attributes.
    * Throws `ArithmeticException` when it exceeds `Long.MaxValue`.
    */
  def valueCount(cards: IndexedSeq[Int]): Long = {
    var p = 1L
    var i = 0
    while (i < dim) {
      if (elems(i) == X) p = Math.multiplyExact(p, cards(i).toLong)
      i += 1
    }
    p
  }

  /** Render as the paper's compact string, e.g. `X1X0`. Values >= 10 are
    * rendered in parentheses to stay unambiguous.
    */
  override def toString: String =
    elems.map {
      case X            => "X"
      case v if v < 10  => v.toString
      case v            => s"($v)"
    }.mkString
}

object Pattern {
  /** Sentinel for a non-deterministic (`X`) element. */
  val X: Int = -1

  /** The root pattern `XX…X` (level 0). */
  def root(d: Int): Pattern = Pattern(Vector.fill(d)(X))

  /** Parse the compact string form, e.g. `"X1X0"` or `"X(12)0"`: the inverse
    * of `toString`, which writes values >= 10 in parentheses.
    */
  def parse(s: String): Pattern = {
    val out = Vector.newBuilder[Int]
    var i = 0
    while (i < s.length) {
      s(i) match {
        case 'X' | 'x' => out += X; i += 1
        case c if c.isDigit => out += c - '0'; i += 1
        case '(' =>
          val close = s.indexOf(')', i)
          val num   = if (close < 0) "" else s.substring(i + 1, close)
          if (num.isEmpty || !num.forall(_.isDigit) || num.length > 9)
            throw new IllegalArgumentException(s"bad parenthesized value at $i in $s")
          out += num.toInt
          i = close + 1
        case c => throw new IllegalArgumentException(s"bad pattern char '$c' in $s")
      }
    }
    Pattern(out.result())
  }

  /** Number of patterns over `cards`, the pattern graph's nodes (§III-B):
    * `Π (c_i + 1)`. Throws `ArithmeticException` when it exceeds
    * `Long.MaxValue`.
    */
  def nodeCount(cards: IndexedSeq[Int]): Long =
    cards.foldLeft(1L)((a, c) => Math.multiplyExact(a, c + 1L))

  /** The largest `Π c_i` for which a dense array holds one cell per value
    * combination: a memory cap (8 MB as `Long` cells, 4 MB as `Int`), not a
    * crossover. While `combosWithin(cards, DenseCells)`, the L1 scan counts
    * rows in such an array and GREEDY keeps its leaf counts in one.
    */
  final val DenseCells = 1 << 20

  /** The suffix products of `cards`: `s(i) = Π_{j >= i} c_j`, so `s(0)` is
    * `Π c_i` and `s(i + 1)` is attribute `i`'s stride. A combination's cell
    * `Σ v_i · s(i + 1)` has attribute 0 as the most significant digit, so
    * cells are in lexicographic combination order. `Π c_i` must fit an `Int`.
    */
  def comboStrides(cards: IndexedSeq[Int]): Array[Int] = {
    require(combosWithin(cards, Int.MaxValue), s"Π c_i over ${cards.mkString("(", ", ", ")")} exceeds an Int")
    cards.toArray.scanRight(1)(_ * _)
  }

  /** Whether the combination count `Π c_i` is at most `limit`. The product
    * stops at the first attribute that takes it past `limit`, so it never
    * overflows.
    */
  def combosWithin(cards: IndexedSeq[Int], limit: Long): Boolean = {
    var p = 1L
    var i = 0
    while (i < cards.length) {
      if (p > 0 && cards(i) > limit / p) return false
      p *= cards(i)
      i += 1
    }
    p <= limit
  }

  /** Enumerate every fully-specified value combination for `cards`
    * (lexicographic). Size is `Π c_i` — callers must keep this small.
    */
  def allCombos(cards: IndexedSeq[Int]): Iterator[Vector[Int]] = {
    val d = cards.length
    if (cards.exists(_ <= 0)) Iterator.empty
    else new Iterator[Vector[Int]] {
      private val cur  = Array.fill(d)(0)
      private var more = true
      def hasNext: Boolean = more
      def next(): Vector[Int] = {
        val out = cur.toVector
        var i = d - 1
        while (i >= 0 && cur(i) == cards(i) - 1) { cur(i) = 0; i -= 1 }
        if (i < 0) more = false else cur(i) += 1
        out
      }
    }
  }

  /** Enumerate every pattern for `cards` (each element is X or a value).
    * Size is `Π (c_i + 1)` — callers must keep this small.
    */
  def allPatterns(cards: IndexedSeq[Int]): Iterator[Pattern] =
    allCombos(cards.map(_ + 1)).map(v => Pattern(v.map(_ - 1)))
}
