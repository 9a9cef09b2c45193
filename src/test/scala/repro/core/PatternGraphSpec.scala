package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Pattern-graph combinatorics vs the paper's closed forms (§III-B). */
class PatternGraphSpec extends AnyFunSuite {

  test("Fig 2: three binary attributes give 27 nodes") {
    assert(Pattern.nodeCount(Vector(2, 2, 2)) == 27L)
  }

  test("Fig 2: 6 nodes at level 1 and 12 at level 2 (C(d,l)·c^l)") {
    val cards = Vector(2, 2, 2)
    assert(PatternGraph.nodeCountAtLevel(cards, 0) == 1L)
    assert(PatternGraph.nodeCountAtLevel(cards, 1) == 6L)
    assert(PatternGraph.nodeCountAtLevel(cards, 2) == 12L)
    assert(PatternGraph.nodeCountAtLevel(cards, 3) == 8L)
  }

  test("Fig 2: 54 edges, matching c·d·(c+1)^(d-1)") {
    assert(PatternGraph.edgeCount(Vector(2, 2, 2)) == 54L)
    // closed form for uniform cardinality
    for (c <- 2 to 4; d <- 1 to 5) {
      val expected = c.toLong * d * math.pow(c + 1, d - 1).round
      assert(PatternGraph.edgeCount(Vector.fill(d)(c)) == expected, s"c=$c d=$d")
    }
  }

  test("node counts sum across levels to the total") {
    for (cards <- Seq(Vector(2, 3), Vector(2, 2, 2), Vector(3, 2, 4), Vector(2, 3, 2, 2))) {
      val sum = (0 to cards.length).map(PatternGraph.nodeCountAtLevel(cards, _)).sum
      assert(sum == Pattern.nodeCount(cards))
    }
  }

  test("level counts match enumeration") {
    for (cards <- Seq(Vector(2, 3), Vector(2, 2, 2), Vector(3, 2, 4))) {
      for (l <- 0 to cards.length) {
        assert(PatternGraph.patternsAtLevel(cards, l).size ==
          PatternGraph.nodeCountAtLevel(cards, l), s"cards=$cards l=$l")
      }
    }
  }

  test("edge count matches enumeration of parent links") {
    for (cards <- Seq(Vector(2, 3), Vector(2, 2, 2), Vector(3, 2, 4))) {
      val edges = Pattern.allPatterns(cards).map(_.parents.size.toLong).sum
      assert(edges == PatternGraph.edgeCount(cards), s"cards=$cards")
    }
  }

  test("BlueNile bottom level has 100,800 nodes; 7 binary attrs have 128 (paper §V-C1)") {
    val bn = Vector(10, 4, 7, 8, 3, 3, 5)
    assert(PatternGraph.nodeCountAtLevel(bn, 7) == 100800L)
    assert(PatternGraph.nodeCountAtLevel(Vector.fill(7)(2), 7) == 128L)
  }

  // Counts past Long.MaxValue throw instead of wrapping; just below the
  // limit they stay exact (checked against BigInt).
  private def exactOrThrows(expected: BigInt)(count: => Long): Unit =
    if (expected.isValidLong) assert(count == expected.toLong)
    else intercept[ArithmeticException](count)

  test("node count is exact at 3^39 (d = 39) and throws at 3^40 (d = 40)") {
    assert(BigInt(3).pow(39).isValidLong && !BigInt(3).pow(40).isValidLong)
    for (d <- Seq(39, 40)) exactOrThrows(BigInt(3).pow(d))(Pattern.nodeCount(Vector.fill(d)(2)))
  }

  test("node count per level is exact up to Long.MaxValue and throws past it") {
    def binom(n: Int, k: Int) = (0 until k).foldLeft(BigInt(1))((a, i) => a * (n - i) / (i + 1))
    // 2^62 at d = 62 is exact although middle-level sums would overflow
    assert(PatternGraph.nodeCountAtLevel(Vector.fill(62)(2), 62) == 1L << 62)
    intercept[ArithmeticException](PatternGraph.nodeCountAtLevel(Vector.fill(63)(2), 63))
    for (d <- Seq(40, 62); l <- 0 to d)
      exactOrThrows(binom(d, l) * BigInt(2).pow(l))(PatternGraph.nodeCountAtLevel(Vector.fill(d)(2), l))
  }

  test("edge count is exact at d = 36 and throws at d = 37 (binary, 2·d·3^(d-1))") {
    def expected(d: Int) = BigInt(2 * d) * BigInt(3).pow(d - 1)
    assert(expected(36).isValidLong && !expected(37).isValidLong)
    for (d <- Seq(36, 37)) exactOrThrows(expected(d))(PatternGraph.edgeCount(Vector.fill(d)(2)))
  }
}
