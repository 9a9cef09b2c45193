package repro.core.mup

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CompressedData, InvertedIndex, Pattern}
import scala.util.Random

/** Cross-validation of the four MUP identification algorithms (Problem 1)
  * against a direct implementation of Definition 5, plus the paper's worked
  * examples and constructions.
  */
class MupAlgorithmsSpec extends AnyFunSuite {

  private val algorithms: Seq[MupAlgorithm] =
    Seq(NaiveMup, PatternBreaker, PatternCombiner, DeepDiver)

  /** Brute-force Definition 5: uncovered and every parent covered. */
  private def bruteForceMups(data: CompressedData, tau: Long): Set[Pattern] = {
    val index = new InvertedIndex(data)
    Pattern.allPatterns(data.cards).filter { p =>
      index.cov(p) < tau && p.parents.forall(q => index.cov(q) >= tau)
    }.toSet
  }

  private def dataOf(rows: Seq[Vector[Int]], cards: Vector[Int]): CompressedData =
    CompressedData.fromRows(rows, cards)

  // --------------------------------------------------- paper worked examples

  test("Example 1: the single MUP is 1XX at τ=1") {
    val data = dataOf(
      Seq(Vector(0, 1, 0), Vector(0, 0, 1), Vector(0, 0, 0), Vector(0, 1, 1), Vector(0, 0, 1)),
      Vector(2, 2, 2))
    for (algo <- algorithms) {
      assert(algo.findMups(data, 1).mups == Set(Pattern.parse("1XX")), algo.name)
    }
  }

  test("Example 1: naive search sees 9 uncovered patterns, 8 dominated by the MUP") {
    val data = dataOf(
      Seq(Vector(0, 1, 0), Vector(0, 0, 1), Vector(0, 0, 0), Vector(0, 1, 1), Vector(0, 0, 1)),
      Vector(2, 2, 2))
    val index = new InvertedIndex(data)
    val uncovered = Pattern.allPatterns(data.cards).filter(p => index.cov(p) < 1).toVector
    assert(uncovered.size == 9)
    val expected = Set("1XX", "1X0", "1X1", "10X", "11X", "100", "101", "110", "111")
    assert(uncovered.map(_.toString).toSet == expected)
  }

  test("§III-C pathology: 0X1 below the MUP XX1 must not be reported") {
    // τ=1, items 000 and 010: MUPs are 1XX and XX1. The uncovered 0X1 has a
    // covered Rule-1 generator (0XX) but is dominated by XX1 — the printed
    // Algorithm 1 can leak such nodes; ours must not.
    val data = dataOf(Seq(Vector(0, 0, 0), Vector(0, 1, 0)), Vector(2, 2, 2))
    val expected = Set(Pattern.parse("1XX"), Pattern.parse("XX1"))
    assert(bruteForceMups(data, 1) == expected)
    for (algo <- algorithms) assert(algo.findMups(data, 1).mups == expected, algo.name)
  }

  test("deep false-MUP regression: level-3 node under a level-1 MUP is suppressed") {
    // d=4 binary; nothing has value 1 on A4 → XXX1 is a MUP. A node such as
    // 0111 has covered Rule-1 generator chains; its intermediate parents are
    // uncovered non-MUPs. No descendant of XXX1 may appear in the output.
    val rnd  = new Random(5L)
    val rows = Vector.fill(30)(Vector(rnd.nextInt(2), rnd.nextInt(2), rnd.nextInt(2), 0))
    val data = dataOf(rows, Vector(2, 2, 2, 2))
    val expected = bruteForceMups(data, 2)
    assert(expected.contains(Pattern.parse("XXX1")))
    for (algo <- algorithms) {
      val got = algo.findMups(data, 2).mups
      assert(got == expected, algo.name)
      assert(!got.exists(p => Pattern.parse("XXX1").dominates(p)), algo.name)
    }
  }

  test("Theorem 1 construction: diagonal dataset has n + C(n, n/2) MUPs") {
    // n = d = 6, τ = n/2 + 1 = 4 → 6 + C(6,3) = 26 MUPs.
    val n = 6
    val rows = Vector.tabulate(n)(i => Vector.tabulate(n)(j => if (i == j) 1 else 0))
    val data = dataOf(rows, Vector.fill(n)(2))
    val tau  = n / 2 + 1
    val expected = bruteForceMups(data, tau)
    assert(expected.size == n + 20) // C(6,3) = 20
    // structure: n single-1 patterns + all (n/2)-zero patterns
    val singles = expected.filter(_.level == 1)
    assert(singles.size == n && singles.forall(_.elems.contains(1)))
    val zeros = expected.filter(_.level == n / 2)
    assert(zeros.size == 20 && zeros.forall(p => p.elems.forall(e => e == 0 || e == Pattern.X)))
    for (algo <- algorithms) assert(algo.findMups(data, tau).mups == expected, algo.name)
  }

  test("Theorem 2 reduction (Fig 1): MUPs are the five single-1 edge patterns") {
    // Graph: v1–e1,e3,e5; v2–e1,e2; v3–e4,e5; v4–e2,e3,e4; plus three all-zero rows.
    val rows = Vector(
      Vector(1, 0, 1, 0, 1),
      Vector(1, 1, 0, 0, 0),
      Vector(0, 0, 0, 1, 1),
      Vector(0, 1, 1, 1, 0),
      Vector(0, 0, 0, 0, 0),
      Vector(0, 0, 0, 0, 0),
      Vector(0, 0, 0, 0, 0),
    )
    val data = dataOf(rows, Vector.fill(5)(2))
    val expected = Set("1XXXX", "X1XXX", "XX1XX", "XXX1X", "XXXX1").map(Pattern.parse)
    assert(bruteForceMups(data, 3) == expected)
    for (algo <- algorithms) assert(algo.findMups(data, 3).mups == expected, algo.name)
  }

  // ------------------------------------------------------------- edge cases

  test("dataset smaller than τ: the root is the only MUP") {
    val data = dataOf(Seq(Vector(0, 0), Vector(1, 1)), Vector(2, 2))
    for (algo <- algorithms) {
      assert(algo.findMups(data, 5).mups == Set(Pattern.root(2)), algo.name)
    }
  }

  test("empty dataset: the root is the only MUP") {
    val data = dataOf(Seq.empty[Vector[Int]], Vector(2, 3))
    for (algo <- algorithms) {
      assert(algo.findMups(data, 1).mups == Set(Pattern.root(2)), algo.name)
    }
  }

  test("fully covered dataset: no MUPs") {
    // every combination of 2x2 present twice, τ=2
    val rows = for {
      a <- Seq(0, 1); b <- Seq(0, 1); _ <- 0 until 2
    } yield Vector(a, b)
    val data = dataOf(rows, Vector(2, 2))
    for (algo <- algorithms) assert(algo.findMups(data, 2).mups.isEmpty, algo.name)
  }

  test("PatternCombiner refuses a domain too large to enumerate, naming Π c_i") {
    val data = dataOf(Seq(Vector.fill(40)(0)), Vector.fill(40)(2))
    val e = intercept[IllegalArgumentException](PatternCombiner.findMups(data, 1))
    assert(e.getMessage.contains(s"Π c_i = ${1L << 40}"), e.getMessage)
  }

  test("τ below 1 is refused by message by the three searches") {
    // At τ <= 0 every pattern is covered, so a search would walk all
    // Π(c_i + 1) patterns to find no MUP.
    val data = dataOf(Seq(Vector(0, 0)), Vector(2, 2))
    for (algo <- Seq(PatternBreaker, PatternCombiner, DeepDiver); tau <- Seq(0L, -1L)) {
      val e = intercept[IllegalArgumentException](algo.findMups(data, tau))
      assert(e.getMessage.contains(s"τ must be at least 1, got $tau"), s"${algo.name}: ${e.getMessage}")
    }
  }

  test("single attribute dataset") {
    val data = dataOf(Seq(Vector(0), Vector(0), Vector(1)), Vector(3))
    // τ=2: cov(0)=2 covered, cov(1)=1 uncovered, cov(2)=0 uncovered; root covered
    val expected = Set(Pattern.parse("1"), Pattern.parse("2"))
    for (algo <- algorithms) assert(algo.findMups(data, 2).mups == expected, algo.name)
  }

  // ------------------------------------------------- randomized agreement

  // One registered test per randomized configuration (deterministic seed):
  // each is an independent dataset/threshold agreement check vs brute force.
  for ((c, trial) <- MupDatasets.random.zipWithIndex) {
    val tau = c.taus.head
    test(s"random agreement trial $trial: cards=${c.cards} n=${c.rows.size} tau=$tau") {
      val data = c.data
      val expected = bruteForceMups(data, tau)
      for (algo <- algorithms) {
        assert(algo.findMups(data, tau).mups == expected, algo.name)
      }
    }
  }

  // Skewed datasets: most mass on one hot combo, a sprinkle elsewhere.
  for ((c, trial) <- MupDatasets.skewed.zipWithIndex) {
    test(s"skewed agreement trial $trial: hot=${c.rows.head.mkString}") {
      val data = c.data
      for (tau <- c.taus) {
        val expected = bruteForceMups(data, tau)
        for (algo <- algorithms) {
          assert(algo.findMups(data, tau).mups == expected, s"${algo.name} tau=$tau")
        }
      }
    }
  }

  // Higher-cardinality attributes (BlueNile-like, values up to 6).
  for ((c, trial) <- MupDatasets.highCardinality.zipWithIndex) {
    val tau = c.taus.head
    test(s"high-cardinality agreement trial $trial: cards=${c.cards} n=${c.rows.size} tau=$tau") {
      val data = c.data
      val expected = bruteForceMups(data, tau)
      for (algo <- algorithms) {
        assert(algo.findMups(data, tau).mups == expected, algo.name)
      }
    }
  }

  // -------------------------------------------------------- level-limited

  test("maxLevel returns exactly the MUPs with level <= maxLevel") {
    val rnd = new Random(8L)
    for (_ <- 0 until 10) {
      val cards = Vector(2, 2, 3, 2)
      val rows  = Vector.fill(30)(Vector.tabulate(4)(i => rnd.nextInt(cards(i))))
      val data  = dataOf(rows, cards)
      val tau   = 1 + rnd.nextInt(4)
      val full  = bruteForceMups(data, tau)
      for (cap <- 0 to 4; algo <- algorithms) {
        val got = algo.findMups(data, tau, cap).mups
        assert(got == full.filter(_.level <= cap), s"${algo.name} cap=$cap")
      }
    }
  }

  // ------------------------------------------------------------ reporting

  test("level histogram partitions the MUP set") {
    val rnd  = new Random(12L)
    val rows = Vector.fill(40)(Vector.tabulate(3)(i => rnd.nextInt(3)))
    val data = dataOf(rows, Vector(3, 3, 3))
    val res  = DeepDiver.findMups(data, 3)
    assert(res.levelHistogram.values.sum == res.mups.size)
    for ((l, c) <- res.levelHistogram) assert(res.mups.count(_.level == l) == c)
  }

  test("work counters are populated") {
    val data = dataOf(Seq(Vector(0, 0), Vector(1, 1)), Vector(2, 2))
    for (algo <- algorithms) {
      val res = algo.findMups(data, 1)
      assert(res.nodesVisited > 0, algo.name)
      assert(res.covCalls > 0, algo.name)
    }
  }

  test("MUPs are mutually non-dominating (maximality, any algorithm)") {
    val rnd  = new Random(77L)
    val rows = Vector.fill(25)(Vector.tabulate(4)(i => rnd.nextInt(2)))
    val data = dataOf(rows, Vector(2, 2, 2, 2))
    for (algo <- algorithms; tau <- Seq(1L, 2L, 4L)) {
      val mups = algo.findMups(data, tau).mups.toVector
      for (a <- mups; b <- mups if a != b) assert(!a.dominates(b), s"${algo.name}: $a vs $b")
    }
  }
}
