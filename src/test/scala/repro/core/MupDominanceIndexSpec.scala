package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Incremental MUP-dominance index (paper Appendix B) vs direct checks. */
class MupDominanceIndexSpec extends AnyFunSuite {

  test("empty index dominates nothing and is dominated by nothing") {
    val idx = new MupDominanceIndex(Vector(2, 2, 2))
    assert(!idx.dominatesSome(Pattern.parse("XXX")))
    assert(!idx.dominatedBySome(Pattern.parse("010")))
  }

  test("descendants of an indexed MUP are dominated") {
    val idx = new MupDominanceIndex(Vector(2, 2, 2))
    idx.add(Pattern.parse("1XX"))
    assert(idx.dominatedBySome(Pattern.parse("10X")))
    assert(idx.dominatedBySome(Pattern.parse("111")))
    assert(!idx.dominatedBySome(Pattern.parse("0XX")))
    assert(!idx.dominatedBySome(Pattern.parse("X1X")))
  }

  test("ancestors of an indexed MUP dominate it") {
    val idx = new MupDominanceIndex(Vector(2, 2, 2))
    idx.add(Pattern.parse("10X"))
    assert(idx.dominatesSome(Pattern.parse("1XX")))
    assert(idx.dominatesSome(Pattern.parse("X0X")))
    assert(idx.dominatesSome(Pattern.parse("XXX")))
    assert(!idx.dominatesSome(Pattern.parse("11X")))
    assert(!idx.dominatesSome(Pattern.parse("101")))
  }

  test("a pattern equal to an indexed MUP neither dominates nor is dominated") {
    val idx = new MupDominanceIndex(Vector(2, 2, 2))
    idx.add(Pattern.parse("1X0"))
    assert(!idx.dominatesSome(Pattern.parse("1X0")))
    assert(!idx.dominatedBySome(Pattern.parse("1X0")))
  }

  test("matches brute-force dominance over random MUP sets (crosses the 64-bit word boundary)") {
    val rnd = new Random(4242L)
    val cards = Vector(2, 3, 2, 2)
    val all = Pattern.allPatterns(cards).toVector
    val idx = new MupDominanceIndex(cards)
    val added = scala.collection.mutable.ArrayBuffer.empty[Pattern]
    // add 100 random patterns so the index spans two Long words
    for (_ <- 0 until 100) {
      val p = all(rnd.nextInt(all.size))
      idx.add(p)
      added += p
      // verify a handful of probes after each add
      for (_ <- 0 until 5) {
        val q = all(rnd.nextInt(all.size))
        val expDominates = added.exists(m => q.dominates(m))
        val expDominated = added.exists(m => m.dominates(q))
        assert(idx.dominatesSome(q) == expDominates, s"dominatesSome($q) after ${added.size}")
        assert(idx.dominatedBySome(q) == expDominated, s"dominatedBySome($q) after ${added.size}")
      }
    }
    assert(idx.size == 100)
  }

  test("matches brute-force dominance while the index grows from 1 to 32 words") {
    val rnd = new Random(1100L)
    val cards = Vector(3, 4, 2, 5, 3, 2)
    val all = Pattern.allPatterns(cards).toVector
    val idx = new MupDominanceIndex(cards)
    val added = scala.collection.mutable.ArrayBuffer.empty[Pattern]
    def check(q: Pattern): Unit = {
      assert(idx.dominatesSome(q) == added.exists(m => q.dominates(m)), s"dominatesSome($q) after ${added.size}")
      assert(idx.dominatedBySome(q) == added.exists(m => m.dominates(q)), s"dominatedBySome($q) after ${added.size}")
    }
    // Mostly specific MUPs, so that probes see both answers of each check.
    def randomMup(): Pattern =
      Pattern(Vector.tabulate(cards.size)(i => if (rnd.nextInt(6) == 0) Pattern.X else rnd.nextInt(cards(i))))
    for (_ <- 0 until 1100) {
      val p = randomMup()
      idx.add(p)
      added += p
      check(p)
      check(added(rnd.nextInt(added.size)))
      for (_ <- 0 until 3) check(all(rnd.nextInt(all.size)))
    }
    assert(idx.size == 1100) // 18 live words in a 32-word capacity
    for (q <- all) check(q)
  }

  test("an indexed MUP excludes only itself at the word edges 63, 64, 127, 128") {
    // 130 fully specified combinations: no two dominate each other.
    val cards = Vector.fill(8)(2)
    val combos = Pattern.allCombos(cards).map(Pattern(_)).take(130).toVector
    val idx = new MupDominanceIndex(cards)
    val edges = Set(63, 64, 127, 128)
    // m is excluded from its own checks, yet its bit is set: a parent that
    // dominates m and no other indexed MUP finds it.
    def checkEdge(k: Int): Unit = {
      val m = combos(k)
      assert(!idx.dominatesSome(m), s"MUP $k dominates itself (size ${idx.size})")
      assert(!idx.dominatedBySome(m), s"MUP $k is dominated by itself (size ${idx.size})")
      val indexed = combos.take(idx.size)
      val solo = m.parents.find(q => indexed.count(q.dominates) == 1)
      assert(solo.exists(idx.dominatesSome), s"sole parent of MUP $k (size ${idx.size})")
    }
    for ((m, k) <- combos.zipWithIndex) {
      idx.add(m)
      if (edges(k)) checkEdge(k) // m is the last MUP: its bit sits at the tail
    }
    edges.foreach(checkEdge)
    // a second copy of a MUP is equal too, so still excluded
    idx.add(combos(64))
    assert(!idx.dominatesSome(combos(64)) && !idx.dominatedBySome(combos(64)))
  }
}
