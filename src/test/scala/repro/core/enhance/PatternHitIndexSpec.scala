package repro.core.enhance

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Pattern
import scala.util.Random

/** The per-(attribute,value) inverted indices over patterns-to-hit (Fig 9). */
class PatternHitIndexSpec extends AnyFunSuite {

  test("a bit is set iff the pattern has X or the matching value at that position") {
    val pats = Vector("0X", "X1", "10").map(Pattern.parse)
    val idx = new PatternHitIndex(pats, Vector(2, 2))
    def bit(i: Int, v: Int, j: Int): Boolean = (idx.index(i)(v)(0) >> j & 1L) == 1L
    // attribute 0, value 0: 0X yes, X1 yes (X), 10 no
    assert(bit(0, 0, 0) && bit(0, 0, 1) && !bit(0, 0, 2))
    // attribute 0, value 1: 0X no, X1 yes, 10 yes
    assert(!bit(0, 1, 0) && bit(0, 1, 1) && bit(0, 1, 2))
    // attribute 1, value 0: 0X yes (X), X1 no, 10 yes
    assert(bit(1, 0, 0) && !bit(1, 0, 1) && bit(1, 0, 2))
  }

  test("hitsOf equals direct matching for random combos and patterns") {
    val rnd = new Random(1001L)
    val cards = Vector(2, 3, 2, 2)
    val all = Pattern.allPatterns(cards).toVector
    for (_ <- 0 until 20) {
      val pats = Vector.fill(1 + rnd.nextInt(70))(all(rnd.nextInt(all.size))).distinct
      val idx = new PatternHitIndex(pats, cards)
      val combo = Vector.tabulate(4)(i => rnd.nextInt(cards(i)))
      val hits = idx.hitsOf(combo, idx.fullFilter)
      val got = pats.indices.filter(j => (hits(j >>> 6) >> (j & 63) & 1L) == 1L).toSet
      val expected = pats.indices.filter(j => pats(j).matches(combo)).toSet
      assert(got == expected)
    }
  }

  test("fullFilter masks the tail word beyond m") {
    val pats = Vector.fill(70)(Pattern.parse("XX")) // 70 > 64 → two words
    val idx = new PatternHitIndex(pats, Vector(2, 2))
    val f = idx.fullFilter
    assert(idx.popcount(f) == 70)
    assert(f.length == 2)
  }

  test("dimension mismatch between pattern and cards is rejected") {
    intercept[IllegalArgumentException] {
      new PatternHitIndex(Vector(Pattern.parse("XX")), Vector(2, 2, 2))
    }
  }

  test("andInto returns the popcount of the intersection") {
    val pats = Vector("0X", "1X", "X0").map(Pattern.parse)
    val idx = new PatternHitIndex(pats, Vector(2, 2))
    val dst = new Array[Long](idx.words)
    // value 0 on attribute 0 keeps 0X and X0
    assert(idx.andInto(idx.fullFilter, 0, 0, dst) == 2)
    // then value 1 on attribute 1 keeps only 0X
    val dst2 = new Array[Long](idx.words)
    assert(idx.andInto(dst, 1, 1, dst2) == 1)
  }
}
