package repro.core.enhance

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CompressedData, Pattern}
import repro.core.mup.DeepDiver
import scala.util.Random

/** GREEDY hitting set (Algorithms 4–5) + the naïve comparator + end-to-end
  * coverage enhancement (Problem 2).
  *
  * The Example 2 fixture reconstructs Fig 8 from every constraint the text
  * states (Fig 9's inverted-index rows for A1/A2, "12110 only hits P5", the
  * first greedy pick hitting three patterns, output size 3):
  * P1=XX01X, P2=1XX0X, P3=XXX11, P4=02XXX, P5=XX11X, P6=11XXX; P7=X020X.
  */
class GreedyHitterSpec extends AnyFunSuite {

  private val ex2Cards = Vector(2, 3, 3, 2, 2)
  private val ex2Pats: Vector[Pattern] =
    Vector("XX01X", "1XX0X", "XXX11", "02XXX", "XX11X", "11XXX").map(Pattern.parse)

  /** The most patterns a single combination hits (brute force). */
  private def maxHitCount(patterns: Seq[Pattern], cards: IndexedSeq[Int]): Int =
    Pattern.allCombos(cards).map(c => patterns.count(_.matches(c))).max

  // --------------------------------------------------------- hit index

  test("Fig 9: inverted-index rows for A1 and A2 values") {
    val idx = new PatternHitIndex(ex2Pats, ex2Cards)
    def row(i: Int, v: Int): Seq[Int] =
      (0 until 6).map(j => if ((idx.index(i)(v)(j >>> 6) >> (j & 63) & 1L) == 1L) 1 else 0)
    assert(row(0, 0) == Seq(1, 0, 1, 1, 1, 0)) // A1=0
    assert(row(0, 1) == Seq(1, 1, 1, 0, 1, 1)) // A1=1
    assert(row(1, 0) == Seq(1, 1, 1, 0, 1, 0)) // A2=0
    assert(row(1, 1) == Seq(1, 1, 1, 0, 1, 1)) // A2=1
    assert(row(1, 2) == Seq(1, 1, 1, 1, 1, 0)) // A2=2
  }

  test("worked example: 12110 hits only P5") {
    val idx = new PatternHitIndex(ex2Pats, ex2Cards)
    val hits = idx.hitsOf(Vector(1, 2, 1, 1, 0), idx.fullFilter)
    val ids = (0 until 6).filter(j => (hits(j >>> 6) >> (j & 63) & 1L) == 1L)
    assert(ids == Seq(4)) // P5 is index 4
  }

  test("worked example: 02011 hits exactly {P1, P3, P4}") {
    val idx = new PatternHitIndex(ex2Pats, ex2Cards)
    val hits = idx.hitsOf(Vector(0, 2, 0, 1, 1), idx.fullFilter)
    val ids = (0 until 6).filter(j => (hits(j >>> 6) >> (j & 63) & 1L) == 1L).toSet
    assert(ids == Set(0, 2, 3))
  }

  test("no combination hits more than 3 of P1..P6 (first greedy pick = 3)") {
    assert(maxHitCount(ex2Pats, ex2Cards) == 3)
  }

  test("Example 2: GREEDY collects exactly 3 value combinations hitting all of P1..P6") {
    val res = GreedyHitter.run(ex2Pats, ex2Cards)
    assert(res.combos.size == 3)
    for (p <- ex2Pats) assert(res.combos.exists(p.matches), s"$p unhit")
  }

  test("Example 2: the naïve greedy also needs exactly 3 combinations") {
    val res = NaiveHitter.run(ex2Pats, ex2Cards)
    assert(res.combos.size == 3)
    for (p <- ex2Pats) assert(res.combos.exists(p.matches), s"$p unhit")
  }

  // ------------------------------------------------------------- generic

  test("empty pattern set needs no combinations") {
    assert(GreedyHitter.run(Vector.empty, Vector(2, 2)).combos.isEmpty)
    assert(NaiveHitter.run(Vector.empty, Vector(2, 2)).combos.isEmpty)
  }

  test("single fully-deterministic pattern: its own combination is chosen") {
    val res = GreedyHitter.run(Vector(Pattern.parse("102")), Vector(2, 2, 3))
    assert(res.combos == Vector(Vector(1, 0, 2)))
  }

  test("one combination can hit many compatible patterns at once") {
    val pats = Vector("1XX", "X1X", "XX1").map(Pattern.parse)
    val res = GreedyHitter.run(pats, Vector(2, 2, 2))
    assert(res.combos == Vector(Vector(1, 1, 1)))
  }

  test("mutually exclusive patterns need one combination each") {
    val pats = Vector("0X", "1X").map(Pattern.parse)
    val res = GreedyHitter.run(pats, Vector(2, 2))
    assert(res.combos.size == 2)
  }

  // One registered test per randomized pattern set: GREEDY must make a
  // provably-maximal pick every round and agree with the naïve greedy pick
  // for pick (both take the first maximum in the same tree-visit order),
  // with the leaf-count bound and with every round at incumbent 0.
  // Mixed cardinalities up to 5 to exercise wide tree fanout.
  {
    val rnd = new Random(11235L)
    for (trial <- 0 until 25) {
      val d     = 2 + rnd.nextInt(3)
      val cards = Vector.fill(d)(2 + rnd.nextInt(if (trial % 2 == 0) 2 else 4))
      val all   = repro.core.Pattern.allPatterns(cards).toVector
      val pats  = Vector.fill(1 + rnd.nextInt(12))(all(rnd.nextInt(all.size))).distinct
      test(s"greedy-vs-naive trial $trial: cards=$cards patterns=${pats.size}") {
        val fast  = GreedyHitter.run(pats, cards)
        val slow  = NaiveHitter.run(pats, cards)
        val plain = GreedyHitter.run(pats, cards, leafBudget = 0L)
        assert(fast.combos == slow.combos, s"pats=$pats")
        assert(plain.combos == fast.combos && plain.nodesExplored >= fast.nodesExplored)
        // every pattern hit by both
        for (p <- pats) {
          assert(fast.combos.exists(p.matches), s"fast missed $p")
          assert(slow.combos.exists(p.matches), s"slow missed $p")
        }
        // each greedy pick hits the max possible among remaining patterns
        var remaining = pats
        for (c <- fast.combos) {
          val maxPossible = maxHitCount(remaining, cards)
          val hit = remaining.count(_.matches(c))
          assert(hit == maxPossible, s"pick $c hit $hit < $maxPossible")
          remaining = remaining.filterNot(_.matches(c))
        }
        assert(remaining.isEmpty)
      }
    }
  }

  // Multi-word instances: 200–1,500 distinct patterns span 4–24 filter words.
  // Patterns are ordered by level, so the general ones (hit early) share the
  // low words and whole words die while others are still live. At this size
  // many rounds have several maximal combinations, so the pick-for-pick
  // agreement with the naïve greedy checks the tie-break too. Every pick is
  // also checked to be maximal, and the round count and tree nodes are
  // pinned: with the leaf-count bound, which walks one root-to-leaf path of
  // d + 1 = 8 nodes per round, and with every round at incumbent 0 (the walk
  // without the bound). Every bound is a popcount or a leaf count, neither of
  // which depends on where a pattern sits in the index, so reversing or
  // shuffling the patterns changes neither picks nor nodes.
  {
    val rnd = new Random(64064L)
    val pinned = Seq((200, 45, 360L, 9952L), (450, 77, 616L, 18111L), (800, 104, 832L, 24973L),
                     (1500, 169, 1352L, 48535L))
    for (((size, rounds, nodes, plainNodes), trial) <- pinned.zipWithIndex) {
      val cards = Vector(2, 4, 3, 2, 5, 2, 3).map(c => c + (if (rnd.nextInt(3) == 0) 1 else 0))
      val pats = {
        val seen = scala.collection.mutable.LinkedHashSet.empty[Pattern]
        while (seen.size < size)
          seen += Pattern(Vector.tabulate(cards.size)(i =>
            if (rnd.nextInt(5) < 3) Pattern.X else rnd.nextInt(cards(i))))
        seen.toVector.sortBy(_.level)
      }
      test(s"multi-word greedy max-pick trial $trial: cards=$cards patterns=$size") {
        val fast = GreedyHitter.run(pats, cards)
        assert(fast.combos.size == rounds && fast.nodesExplored == nodes)
        assert(fast.combos == NaiveHitter.run(pats, cards).combos)
        val plain = GreedyHitter.run(pats, cards, leafBudget = 0L)
        assert(plain.combos == fast.combos && plain.nodesExplored == plainNodes)
        for (perm <- Seq(pats.reverse, new Random(trial).shuffle(pats))) {
          val res = GreedyHitter.run(perm, cards)
          assert(res.combos == fast.combos && res.nodesExplored == fast.nodesExplored)
        }
        var remaining = pats.indices.toVector
        var wordDied  = false
        def liveWords(ids: Seq[Int]) = ids.map(_ >>> 6).toSet
        for (c <- fast.combos) {
          val maxPossible = maxHitCount(remaining.map(pats), cards)
          val (hit, rest) = remaining.partition(j => pats(j).matches(c))
          assert(hit.size == maxPossible, s"pick $c hit ${hit.size} < $maxPossible")
          if (rest.nonEmpty && liveWords(rest).size < liveWords(remaining).size) wordDied = true
          remaining = rest
        }
        assert(remaining.isEmpty)
        assert(wordDied, "no filter word emptied while others were live")
        // a second run repeats the first exactly: no result depends on what
        // the search buffers held before
        val again = GreedyHitter.run(pats, cards)
        assert(again.combos == fast.combos && again.nodesExplored == fast.nodesExplored)
      }
    }
  }

  test("output is never larger than the pattern count (each pick hits >= 1)") {
    val rnd = new Random(31L)
    for (_ <- 0 until 10) {
      val cards = Vector(2, 3, 2)
      val all   = repro.core.Pattern.allPatterns(cards).toVector
      val pats  = Vector.fill(8)(all(rnd.nextInt(all.size))).distinct
      assert(GreedyHitter.run(pats, cards).combos.size <= pats.size)
    }
  }

  test("a pattern space past Long.MaxValue runs with the leaf counts and picks as the naïve greedy") {
    // 62 constant attributes: Π (c_i + 1) = 2^62 · 16 passes Long.MaxValue,
    // but Π c_i = 9 fits the leaf budget, so each round walks one
    // root-to-leaf path of d + 1 = 65 nodes.
    val cards = Vector.fill(62)(1) ++ Vector(3, 3)
    val pats = Vector("1X", "X2", "00", "X0").map(s => Pattern(Vector.fill(62)(Pattern.X) ++ Pattern.parse(s).elems))
    val res  = GreedyHitter.run(pats, cards)
    assert(res.combos == NaiveHitter.run(pats, cards).combos)
    assert(res.combos == GreedyHitter.run(pats, cards, leafBudget = 0L).combos)
    assert(res.combos.size == 2 && res.nodesExplored == 65L * 2)
    for (p <- pats) assert(res.combos.exists(p.matches), s"$p unhit")
  }

  test("a cardinality below 1 is rejected by message naming the attribute") {
    val e = intercept[IllegalArgumentException](GreedyHitter.run(Vector(Pattern.parse("0X")), Vector(2, 0)))
    assert(e.getMessage.contains("attribute 1 has cardinality 0"), e.getMessage)
  }

  // --------------------------------------------------------- end-to-end

  // Problem 2 end-to-end, one registered test per randomized configuration:
  // adding τ copies of every suggested combination must raise the maximum
  // covered level (Definition 6) to at least λ.
  {
    val rnd = new Random(2718L)
    for (trial <- 0 until 15) {
      val d     = 3 + rnd.nextInt(2)
      val cards = Vector.fill(d)(2 + rnd.nextInt(2))
      val rows  = Vector.fill(30 + rnd.nextInt(40))(Vector.tabulate(d)(i => rnd.nextInt(cards(i))))
      val tau   = 2 + rnd.nextInt(3)
      val lambda = 1 + rnd.nextInt(d - 1)
      test(s"end-to-end enhancement trial $trial: cards=$cards tau=$tau lambda=$lambda") {
        val data  = CompressedData.fromRows(rows, cards)
        val mups  = DeepDiver.findMups(data, tau).mups
        val toHit = LevelExpansion.uncoveredAtLevel(mups, cards, lambda).toVector
        val picks = GreedyHitter.run(toHit, cards).combos

        val augmented = rows ++ picks.flatMap(c => Vector.fill(tau)(c))
        val after = DeepDiver.findMups(CompressedData.fromRows(augmented, cards), tau).mups
        assert(after.forall(_.level > lambda),
          s"leftover=${after.filter(_.level <= lambda)}")
      }
    }
  }

  test("work counters: GREEDY explores fewer nodes than the naïve combo scan on a larger instance") {
    val rnd = new Random(17L)
    val cards = Vector(2, 2, 2, 2, 2, 2)
    val all = repro.core.Pattern.allPatterns(cards).toVector.filter(_.level == 3)
    val pats = Vector.fill(25)(all(rnd.nextInt(all.size))).distinct
    val fast = GreedyHitter.run(pats, cards)
    val slow = NaiveHitter.run(pats, cards)
    assert(fast.combos == slow.combos)
    assert(fast.nodesExplored < slow.combosScanned,
      s"greedy=${fast.nodesExplored} naive=${slow.combosScanned}")
  }
}
