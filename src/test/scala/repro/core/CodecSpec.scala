package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The mixed-radix codec: combo ids over `c_i` digits, pattern ids over
  * `(c_i + 1)` digits with `X` as digit `c_i`.
  */
class CodecSpec extends AnyFunSuite {

  private def randomCards(rnd: Random): Vector[Int] =
    Vector.fill(1 + rnd.nextInt(8))(1 + rnd.nextInt(6))

  test("random combos and patterns round-trip at random cards") {
    val rnd = new Random(4242L)
    for (_ <- 0 until 200) {
      val cards = randomCards(rnd)
      val codec = new Codec(cards)
      val combo = Vector.tabulate(cards.size)(i => rnd.nextInt(cards(i)))
      val cid   = codec.comboId(combo)
      assert(cid >= 0 && cid < codec.comboCount)
      assert(codec.combo(cid) == combo, s"cards=$cards combo=$combo")
      val pat = Pattern(Vector.tabulate(cards.size)(i => rnd.nextInt(cards(i) + 1) - 1))
      val pid = codec.patternId(pat.elems)
      assert(pid >= 0 && pid < codec.patternCount)
      assert(codec.pattern(pid) == pat, s"cards=$cards pattern=$pat")
    }
  }

  test("combo ids are dense in [0, Π c_i) and pattern ids in [0, Π (c_i + 1))") {
    val rnd = new Random(77L)
    for (_ <- 0 until 20) {
      val cards = randomCards(rnd).take(5)
      val codec = new Codec(cards)
      assert(codec.comboCount == cards.map(_.toLong).product)
      assert(codec.patternCount == Pattern.nodeCount(cards))
      val comboIds = Pattern.allCombos(cards).map(codec.comboId(_)).toVector
      assert(comboIds == (0L until codec.comboCount).toVector, s"cards=$cards")
      val patternIds = Pattern.allPatterns(cards).map(p => codec.patternId(p.elems)).toVector.sorted
      assert(patternIds == (0L until codec.patternCount).toVector, s"cards=$cards")
    }
  }

  test("id order is the lexicographic order with X after every value") {
    val codec = new Codec(Vector(2, 3))
    val inOrder = Vector("00", "01", "02", "0X", "10", "11", "12", "1X", "X0", "X1", "X2", "XX")
    assert(inOrder.map(s => codec.patternId(Pattern.parse(s).elems)) == (0L until 12L).toVector)
    assert(codec.comboId(Vector(1, 2)) == 5L)
  }

  test("a pattern space one step past Long overflow is refused by message, not wrapped") {
    // 3^39 < Long.MaxValue < 3^40
    val fits = Vector.fill(39)(2)
    assert(new Codec(fits).patternCount == BigInt(3).pow(39).toLong)
    val over = Vector.fill(40)(2)
    val e = intercept[IllegalArgumentException](new Codec(over))
    assert(e.getMessage.contains("exceeds Long.MaxValue"), e.getMessage)
  }

  test("out-of-range values, ids and dimensions are rejected") {
    val codec = new Codec(Vector(2, 3))
    intercept[IllegalArgumentException](codec.comboId(Vector(2, 0)))
    intercept[IllegalArgumentException](codec.comboId(Vector(0, Pattern.X)))
    intercept[IllegalArgumentException](codec.comboId(Vector(0)))
    intercept[IllegalArgumentException](codec.patternId(Vector(0, 3)))
    intercept[IllegalArgumentException](codec.combo(6L))
    intercept[IllegalArgumentException](codec.pattern(12L))
    intercept[IllegalArgumentException](codec.pattern(-1L))
  }
}
