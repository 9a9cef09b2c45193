package repro.core

/** Mixed-radix ids over one attribute domain (paper §III-B).
  *
  * A value combination `t` gets `Σ t_i · comboStride(i)` over the `c_i`
  * digits, so combo ids are dense in `[0, comboCount)` with
  * `comboCount = Π c_i`. A pattern gets the same sum over `(c_i + 1)` digits,
  * with `X` as digit `c_i`, so pattern ids are dense in `[0, patternCount)`
  * with `patternCount = Π (c_i + 1)`, the pattern graph's node count. In both
  * spaces attribute 0 is the most significant digit, so id order is the
  * lexicographic order of the elements (with `X` after every value).
  *
  * Sizes come from [[Pattern.nodeCount]]'s checked product: a domain whose
  * pattern space exceeds `Long.MaxValue` is refused by message, never wrapped.
  * The combo space is no larger, so it fits too.
  */
final class Codec(val cards: IndexedSeq[Int]) {
  require(cards.forall(_ >= 1), s"cardinalities must be at least 1: $cards")

  /** Number of attributes `d`. */
  val dim: Int = cards.length

  private val card = cards.toArray

  /** `Π (c_i + 1)`: the number of pattern ids. */
  val patternCount: Long =
    try Pattern.nodeCount(cards)
    catch {
      case _: ArithmeticException => throw new IllegalArgumentException(
        s"pattern space Π(c_i + 1) over cards ${cards.mkString("[", ",", "]")} exceeds Long.MaxValue")
    }

  /** `Π c_i`: the number of combo ids. */
  val comboCount: Long = card.foldLeft(1L)(_ * _)

  private val comboStrides   = strides(0)
  private val patternStrides = strides(1)

  private def strides(extra: Int): Array[Long] = {
    val s = new Array[Long](dim)
    var acc = 1L
    var i = dim - 1
    while (i >= 0) { s(i) = acc; acc *= card(i) + extra; i -= 1 }
    s
  }

  /** The place value of attribute `i` in a combo id. */
  def comboStride(i: Int): Long = comboStrides(i)

  /** The id of a value combination: `combo(i)` in `[0, c_i)`. */
  def comboId(combo: collection.IndexedSeq[Int]): Long = {
    require(combo.length == dim, s"combo dim ${combo.length} != $dim")
    var id = 0L
    var i = 0
    while (i < dim) {
      val v = combo(i)
      require(v >= 0 && v < card(i), s"value $v out of range [0, ${card(i)}) for attribute $i")
      id += v * comboStrides(i)
      i += 1
    }
    id
  }

  /** The value combination with id `id`: the inverse of [[comboId]]. */
  def combo(id: Long): Vector[Int] = {
    require(id >= 0 && id < comboCount, s"combo id $id out of range [0, $comboCount)")
    val out = new Array[Int](dim)
    var rest = id
    var i = dim - 1
    while (i >= 0) { out(i) = (rest % card(i)).toInt; rest /= card(i); i -= 1 }
    out.toVector
  }

  /** The id of a pattern's elements: `elems(i)` in `[0, c_i)` or
    * [[Pattern.X]], which is digit `c_i`.
    */
  def patternId(elems: collection.IndexedSeq[Int]): Long = {
    require(elems.length == dim, s"pattern dim ${elems.length} != $dim")
    var id = 0L
    var i = 0
    while (i < dim) {
      val e = elems(i)
      require(e >= Pattern.X && e < card(i), s"value $e out of range [0, ${card(i)}) for attribute $i")
      id += (if (e == Pattern.X) card(i) else e) * patternStrides(i)
      i += 1
    }
    id
  }

  /** Write the elements of the pattern with id `id` to `out`, with `X` as
    * [[Pattern.X]]: the inverse of [[patternId]]. Returns `out`.
    */
  def patternInto(id: Long, out: Array[Int]): Array[Int] = {
    require(id >= 0 && id < patternCount, s"pattern id $id out of range [0, $patternCount)")
    var rest = id
    var i = dim - 1
    while (i >= 0) {
      val radix = card(i) + 1
      val digit = (rest % radix).toInt
      out(i) = if (digit == card(i)) Pattern.X else digit
      rest /= radix
      i -= 1
    }
    out
  }

  /** The pattern with id `id`. */
  def pattern(id: Long): Pattern = Pattern(patternInto(id, new Array[Int](dim)).toVector)
}
