package repro.core.enhance

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CompressedData, InvertedIndex, Pattern}
import scala.util.Random

/** Appendix C: expansion of MUPs into the uncovered patterns at level λ. */
class LevelExpansionSpec extends AnyFunSuite {

  /** Example 2 attribute cardinalities: A2, A3 ternary; others binary. */
  private val ex2Cards = Vector(2, 3, 3, 2, 2)

  test("Appendix C worked example: subset patterns of P1=XX01X at level 3") {
    val p1 = Pattern.parse("XX01X")
    val got = LevelExpansion.uncoveredAtLevel(Seq(p1), ex2Cards, 3)
    val expected = Set("0X01X", "1X01X", "X001X", "X101X", "X201X", "XX010", "XX011")
      .map(Pattern.parse)
    assert(got == expected)
  }

  test("descendants at the pattern's own level is the pattern itself") {
    val p = Pattern.parse("X1X0")
    assert(LevelExpansion.uncoveredAtLevel(Seq(p), Vector(2, 2, 2, 2), 2) == Set(p))
  }

  test("descendant counts follow C(#X, k) × Π cards of chosen attrs") {
    val p = Pattern.parse("XXX")
    // level 2 over cards (2,3,2): pairs {A1,A2}:6 {A1,A3}:4 {A2,A3}:6 = 16
    assert(LevelExpansion.uncoveredAtLevel(Seq(p), Vector(2, 3, 2), 2).size == 16)
  }

  test("Example 2: M_λ at λ=2 is exactly P1..P6 (P7 at level 3 is excluded)") {
    val mups = Seq("XX01X", "1XX0X", "XXX11", "02XXX", "XX11X", "11XXX", "X020X")
      .map(Pattern.parse)
    val mLambda = LevelExpansion.uncoveredAtLevel(mups, ex2Cards, 2)
    assert(mLambda == mups.take(6).toSet)
  }

  // One registered test per randomized dataset: the Appendix-C expansion must
  // equal brute-force enumeration of uncovered level-λ patterns at every λ.
  {
    val rnd = new Random(606L)
    for (trial <- 0 until 15) {
      val d     = 2 + rnd.nextInt(3)
      val cards = Vector.fill(d)(2 + rnd.nextInt(2))
      val rows  = Vector.fill(rnd.nextInt(50))(Vector.tabulate(d)(i => rnd.nextInt(cards(i))))
      val tau   = 1 + rnd.nextInt(4)
      test(s"expansion-vs-brute-force trial $trial: cards=$cards n=${rows.size} tau=$tau") {
        val data  = CompressedData.fromRows(rows, cards)
        val index = new InvertedIndex(data)
        val mups  = repro.core.mup.DeepDiver.findMups(data, tau).mups
        for (lambda <- 0 to d) {
          val expected = Pattern.allPatterns(cards)
            .filter(p => p.level == lambda && index.cov(p) < tau).toSet
          val got = LevelExpansion.uncoveredAtLevel(mups, cards, lambda)
          assert(got == expected, s"lambda=$lambda")
        }
      }
    }
  }

  test("expansion-vs-brute-force at d=7: level-1 MUPs fill up to 6 X positions") {
    // A1 is always 0, so 1XXXXXX is a level-1 MUP; the other values are
    // skewed towards 0, so the MUPs sit at levels 1 to 6.
    val rnd   = new Random(707L)
    val cards = Vector.fill(7)(2 + rnd.nextInt(2))
    val rows  = Vector.fill(150)(Vector.tabulate(7)(i =>
      if (i == 0) 0 else math.min(rnd.nextInt(cards(i)), rnd.nextInt(cards(i)))))
    val data  = CompressedData.fromRows(rows, cards)
    val index = new InvertedIndex(data)
    val mups  = repro.core.mup.DeepDiver.findMups(data, 2).mups
    assert(mups.contains(Pattern.parse("1XXXXXX")))
    for (lambda <- 0 to 7) {
      val expected = Pattern.allPatterns(cards).filter(p => p.level == lambda && index.cov(p) < 2).toSet
      assert(LevelExpansion.uncoveredAtLevel(mups, cards, lambda) == expected, s"lambda=$lambda")
    }
  }

  test("covering M_λ suffices: a MUP's own coverage does not imply child coverage (Appendix C argument)") {
    // MUP P5 = XX11X from Example 2: its child 1X11X at level 3 is uncovered
    // even if three combos covering P1..P7 are added — the motivating
    // counter-example for hitting MUPs only.
    val p5 = Pattern.parse("XX11X")
    val child = Pattern.parse("1X11X")
    assert(p5.dominates(child))
    val combos = Seq("02011", "02111", "10201").map(s => Pattern.parse(s).elems)
    assert(!combos.exists(child.matches))
  }
}
