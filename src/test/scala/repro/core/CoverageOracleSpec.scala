package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** CompressedData + InvertedIndex coverage oracles (paper Appendix A). */
class CoverageOracleSpec extends AnyFunSuite {

  /** Example 1 of the paper: t1:010 t2:001 t3:000 t4:011 t5:001. */
  private def example1: CompressedData =
    CompressedData.fromRows(
      Seq(Vector(0, 1, 0), Vector(0, 0, 1), Vector(0, 0, 0), Vector(0, 1, 1), Vector(0, 0, 1)),
      Vector(2, 2, 2))

  /** Reference coverage by direct scan over the distinct combos
    * (Definition 2): the baseline the inverted index is checked against.
    */
  private def coverageScan(data: CompressedData, p: Pattern): Long =
    data.combos.indices.filter(k => p.matches(data.combos(k).toIndexedSeq)).map(data.counts(_)).sum

  test("compression aggregates duplicates (001 appears twice)") {
    val d = example1
    assert(d.total == 5L)
    assert(d.distinctCombos == 4)
  }

  test("Appendix A worked example: cov(0X1) = 3") {
    val d = example1
    assert(coverageScan(d, Pattern.parse("0X1")) == 3L)
    assert(new InvertedIndex(d).cov(Pattern.parse("0X1")) == 3L)
  }

  test("root coverage equals dataset size") {
    val d = example1
    assert(new InvertedIndex(d).cov(Pattern.root(3)) == 5L)
  }

  test("Example 1: cov(1XX) = 0, so 1XX is uncovered at any τ >= 1") {
    val d = example1
    assert(new InvertedIndex(d).cov(Pattern.parse("1XX")) == 0L)
  }

  test("out-of-range and misshapen rows are rejected") {
    intercept[IllegalArgumentException] {
      CompressedData.fromRows(Seq(Vector(0, 5)), Vector(2, 2))
    }
    intercept[IllegalArgumentException] {
      CompressedData.fromRows(Seq(Vector(0)), Vector(2, 2))
    }
  }

  // One registered test per randomized dataset: inverted index and scan
  // oracle must both equal direct row counting on every pattern.
  {
    val rnd = new Random(20260814L)
    for (trial <- 0 until 30) {
      val d     = 1 + rnd.nextInt(4)
      val cards = Vector.fill(d)(2 + rnd.nextInt(3))
      val n     = 1 + rnd.nextInt(60)
      val rows  = Vector.fill(n)(Vector.tabulate(d)(i => rnd.nextInt(cards(i))))
      test(s"oracle agreement trial $trial: cards=$cards n=$n") {
        val data  = CompressedData.fromRows(rows, cards)
        val index = new InvertedIndex(data)
        for (p <- Pattern.allPatterns(cards)) {
          val direct = rows.count(p.matches).toLong
          assert(coverageScan(data, p) == direct, s"scan $p")
          assert(index.cov(p) == direct, s"index $p")
        }
      }
    }
  }

  test("coverage is monotone: parents cover at least as much as children") {
    val rnd = new Random(99L)
    val cards = Vector(2, 3, 2)
    val rows  = Vector.fill(40)(Vector.tabulate(3)(i => rnd.nextInt(cards(i))))
    val index = new InvertedIndex(CompressedData.fromRows(rows, cards))
    for (p <- Pattern.allPatterns(cards); q <- p.parents)
      assert(index.cov(q) >= index.cov(p), s"$q vs $p")
  }

  test("PATTERN-COMBINER identity: cov(P) = Σ cov(children partitioning on one X)") {
    val rnd = new Random(7L)
    val cards = Vector(2, 2, 3)
    val rows  = Vector.fill(50)(Vector.tabulate(3)(i => rnd.nextInt(cards(i))))
    val index = new InvertedIndex(CompressedData.fromRows(rows, cards))
    for (p <- Pattern.allPatterns(cards) if p.level < 3; i <- 0 until 3 if !p.isDet(i)) {
      val parts = (0 until cards(i)).map(v => index.cov(Pattern(p.elems.updated(i, v))))
      assert(parts.sum == index.cov(p), s"$p on attr $i")
    }
  }

  test("covCalls counter increments per call") {
    val index = new InvertedIndex(example1)
    val before = index.covCalls
    index.cov(Pattern.parse("XXX")); index.cov(Pattern.parse("0X1"))
    assert(index.covCalls == before + 2)
  }

  // One registered test per randomized dataset: the early-exit threshold
  // test must agree with the full count at every τ, including the root and
  // patterns whose vectors do not intersect.
  {
    val rnd = new Random(7331L)
    for (trial <- 0 until 12) {
      val d     = 2 + rnd.nextInt(3)
      val cards = Vector.fill(d)(2 + rnd.nextInt(3))
      val n     = 1 + rnd.nextInt(40)
      val rows  = Vector.fill(n)(Vector.tabulate(d)(i => rnd.nextInt(cards(i))))
      test(s"covers(p, τ) == (cov(p) >= τ) trial $trial: cards=$cards n=$n") {
        val data  = CompressedData.fromRows(rows, cards)
        val index = new InvertedIndex(data)
        val total = data.total
        val pats  = Pattern.allPatterns(cards).toVector
        val taus  = new Random(trial)
        assert(pats.exists(p => p.level >= 2 && index.cov(p) == 0L), "no zero-intersection pattern")
        for (p <- pats; tau <- Seq(0L, 1L, 1L + taus.nextInt(total.toInt + 1), total, total + 1)) {
          val c      = index.cov(p)
          val before = index.covCalls
          assert(index.covers(p, tau) == (c >= tau), s"$p tau=$tau cov=$c")
          assert(index.covCalls == before + 1)
        }
        assert(index.covers(Pattern.root(d), total) && !index.covers(Pattern.root(d), total + 1))
      }
    }
  }

  test("empty dataset: every pattern has coverage 0") {
    val data  = CompressedData.fromRows(Seq.empty[Vector[Int]], Vector(2, 2))
    val index = new InvertedIndex(data)
    for (p <- Pattern.allPatterns(Vector(2, 2))) assert(index.cov(p) == 0L)
  }

  test("the constructor rejects a code of -1 or c_i, a wrong arity and a negative count") {
    val cards = Vector(2, 3)
    def build(combo: Array[Int], count: Long) = new CompressedData(cards, Array(Array(0, 0), combo), Array(1L, count))
    for ((combo, count, msg) <- Seq(
           (Array(0, -1), 1L, "value -1 out of range [0, 3) for attribute 1"),
           (Array(2, 0), 1L, "value 2 out of range [0, 2) for attribute 0"),
           (Array(0, 0, 0), 1L, "combo arity 3 != 2"),
           (Array(1, 2), -4L, "negative count -4"))) {
      val e = intercept[IllegalArgumentException](build(combo, count))
      assert(e.getMessage.contains(msg), e.getMessage)
    }
    assert(build(Array(1, 2), 0L).total == 1L)
  }

  test("the constructor rejects a cardinality below 1 by a message naming the attribute, on empty data too") {
    for ((cards, combos, msg) <- Seq(
           (Vector(2, 0), Array.empty[Array[Int]], "attribute 1 has cardinality 0"),
           (Vector(0), Array.empty[Array[Int]], "attribute 0 has cardinality 0"),
           (Vector(3, -1), Array.empty[Array[Int]], "attribute 1 has cardinality -1"),
           (Vector(3, -1), Array(Array(0, 0)), "attribute 1 has cardinality -1"))) {
      val e = intercept[IllegalArgumentException](new CompressedData(cards, combos, combos.map(_ => 1L)))
      assert(e.getMessage.contains(msg), e.getMessage)
    }
  }

  test("tau(rate) = max(1, ⌊rate · total⌋): 0 gives 1, fractions floor, COMPAS at 0.0015 gives 10") {
    def ofTotal(total: Long) = new CompressedData(Vector(1), Array(Array(0)), Array(total))
    assert(example1.tau(0.0) == 1L)
    assert(example1.tau(0.1) == 1L)   // ⌊0.5⌋ = 0, raised to 1
    assert(example1.tau(0.5) == 2L)   // ⌊2.5⌋
    assert(example1.tau(1.0) == 5L)
    assert(ofTotal(6889L).tau(0.0015) == 10L) // ⌊10.33⌋, the §V-B audit's τ
    assert(ofTotal(6889L).tau(0.01) == 68L)
  }
}
