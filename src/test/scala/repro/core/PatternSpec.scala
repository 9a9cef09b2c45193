package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Unit + property tests for the pattern algebra (paper §II).
  *
  * Property-style tests enumerate exhaustively over a fixed family of small
  * cardinality vectors (scalatestplus-scalacheck is not in the offline
  * cache, so properties are checked by exhaustive enumeration instead of
  * random sampling — strictly stronger at these sizes).
  */
class PatternSpec extends AnyFunSuite {

  /** Small attribute-cardinality vectors covering d in 1..4 and c in 2..4. */
  private val cardCases: Seq[Vector[Int]] = Seq(
    Vector(2), Vector(4), Vector(2, 2), Vector(2, 3), Vector(3, 2),
    Vector(2, 2, 2), Vector(2, 3, 2), Vector(3, 3, 3), Vector(2, 2, 2, 2),
    Vector(2, 3, 2, 4),
  )

  /** All children: one `X` of `p` replaced by every value of its attribute. */
  private def children(p: Pattern, cards: IndexedSeq[Int]): Seq[Pattern] =
    for {
      i <- 0 until p.dim if !p.isDet(i)
      v <- 0 until cards(i)
    } yield Pattern(p.elems.updated(i, v))

  private def forAllCards(body: Vector[Int] => Unit): Unit = cardCases.foreach(body)

  private val X = Pattern.X

  // ------------------------------------------------------------ basics

  test("parse/format round-trips") {
    for (s <- Seq("X1X0", "XXX", "0120", "1", "X")) {
      assert(Pattern.parse(s).toString == s)
    }
  }

  test("parse rejects garbage") {
    intercept[IllegalArgumentException](Pattern.parse("X1?0"))
    for (s <- Seq("X(12", "X()0", "(1a)", "X)", "(99999999999)"))
      intercept[IllegalArgumentException](Pattern.parse(s))
  }

  test("parse reads back the parenthesized form of values >= 10") {
    assert(Pattern.parse("X(12)0").elems == Vector(X, 12, 0))
    assert(Pattern.parse("(10)(14)").elems == Vector(10, 14))
  }

  test("parse/format round-trips random patterns with cardinalities up to 15") {
    val rnd = new scala.util.Random(1515L)
    for (_ <- 0 until 500) {
      val d     = 1 + rnd.nextInt(8)
      val cards = Vector.fill(d)(1 + rnd.nextInt(15))
      val p     = Pattern(Vector.tabulate(d)(i => rnd.nextInt(cards(i) + 1) - 1))
      assert(Pattern.parse(p.toString) == p, s"$p")
    }
  }

  test("root has level 0 and full X") {
    val r = Pattern.root(4)
    assert(r.level == 0)
    assert(r.elems == Vector(X, X, X, X))
    assert(r.toString == "XXXX")
  }

  test("level counts deterministic elements") {
    assert(Pattern.parse("1XXX").level == 1)
    assert(Pattern.parse("10X1").level == 3)
    assert(Pattern.parse("XXXX").level == 0)
    assert(Pattern.parse("1001").level == 4)
  }

  test("matching follows Definition 1 (paper's X1X0 example)") {
    val p = Pattern.parse("X1X0")
    assert(p.matches(Vector(1, 1, 0, 0)))  // t1
    assert(p.matches(Vector(0, 1, 1, 0)))  // t2
    assert(!p.matches(Vector(1, 0, 1, 0))) // t3: P[2]=1 but t3[2]=0
  }

  test("root matches everything") {
    val r = Pattern.root(3)
    assert(r.matches(Vector(0, 0, 0)) && r.matches(Vector(1, 2, 1)))
  }

  test("value count (Definition 7): X1X0 over binary attrs has 4 combos") {
    assert(Pattern.parse("X1X0").valueCount(Vector(2, 2, 2, 2)) == 4L)
    assert(Pattern.parse("XXXX").valueCount(Vector(2, 3, 2, 5)) == 60L)
    assert(Pattern.parse("1010").valueCount(Vector(2, 2, 2, 2)) == 1L)
  }

  test("value count is exact up to Long.MaxValue and throws past it") {
    assert(Pattern.root(62).valueCount(Vector.fill(62)(2)) == 1L << 62)
    assert(Pattern(0 +: Vector.fill(62)(Pattern.X)).valueCount(Vector.fill(63)(2)) == 1L << 62)
    intercept[ArithmeticException](Pattern.root(63).valueCount(Vector.fill(63)(2)))
    intercept[ArithmeticException](Pattern.root(64).valueCount(Vector.fill(64)(2)))
  }

  // ---------------------------------------------------------- dominance

  test("dominance: 10X1 is dominated by 1XXX (paper §II)") {
    val p1 = Pattern.parse("1XXX")
    val p2 = Pattern.parse("10X1")
    assert(p1.dominates(p2))
    assert(!p2.dominates(p1))
  }

  test("dominance is strict: a pattern does not dominate itself") {
    val p = Pattern.parse("1X0X")
    assert(!p.dominates(p))
    assert(p.generalizes(p))
  }

  test("dominance requires agreement on deterministic elements") {
    assert(!Pattern.parse("1XXX").dominates(Pattern.parse("0X01")))
  }

  // ----------------------------------------------------- parents/children

  test("parents replace one deterministic element with X") {
    val p = Pattern.parse("10X1")
    assert(p.parents.toSet == Set(
      Pattern.parse("X0X1"), Pattern.parse("1XX1"), Pattern.parse("10XX")))
  }

  test("root has no parents; fully deterministic has no children") {
    assert(Pattern.root(3).parents.isEmpty)
    assert(children(Pattern.parse("101"), Vector(2, 2, 2)).isEmpty)
  }

  test("children specialize one X to every value") {
    val p = Pattern.parse("1X")
    assert(children(p, Vector(2, 3)).toSet == Set(
      Pattern.parse("10"), Pattern.parse("11"), Pattern.parse("12")))
  }

  test("property: parent/child are inverse relations") {
    forAllCards { cards =>
      for (p <- Pattern.allPatterns(cards)) {
        for (q <- p.parents) assert(children(q, cards).contains(p))
        for (q <- children(p, cards)) assert(q.parents.contains(p))
      }
    }
  }

  test("property: a parent dominates its child") {
    forAllCards { cards =>
      for (p <- Pattern.allPatterns(cards); q <- p.parents)
        assert(q.dominates(p))
    }
  }

  test("property: P' dominates P iff matches(P') ⊇ matches(P) strictly fewer dets") {
    forAllCards { cards =>
      val pats = Pattern.allPatterns(cards).toVector
      val combos = Pattern.allCombos(cards).toVector
      for (a <- pats; b <- pats) {
        val mA = combos.filter(a.matches).toSet
        val mB = combos.filter(b.matches).toSet
        if (a.dominates(b)) assert(mB.subsetOf(mA) && a.level < b.level)
        if (mB.subsetOf(mA) && a.level < b.level && a.generalizes(b)) assert(a.dominates(b))
      }
    }
  }

  // ---------------------------------------------------------- Rule 1 / 2

  test("Rule 1 worked example: 0XX generates 0X0, 0X1, 00X, 01X (paper Fig 3)") {
    val cards = Vector(2, 2, 2)
    assert(Pattern.parse("0XX").childrenRule1(cards).toSet == Set(
      Pattern.parse("00X"), Pattern.parse("01X"),
      Pattern.parse("0X0"), Pattern.parse("0X1")))
  }

  test("Rule 1 worked example: X1X generates only X10 and X11") {
    val cards = Vector(2, 2, 2)
    assert(Pattern.parse("X1X").childrenRule1(cards).toSet == Set(
      Pattern.parse("X10"), Pattern.parse("X11")))
  }

  test("Theorem 3: Rule 1 generates every non-root node exactly once") {
    forAllCards { cards =>
      val seen = scala.collection.mutable.Map.empty[Pattern, Int]
      for (p <- Pattern.allPatterns(cards); ch <- p.childrenRule1(cards))
        seen(ch) = seen.getOrElse(ch, 0) + 1
      val all = Pattern.allPatterns(cards).toVector
      assert(all.filter(_.level > 0).forall(p => seen.getOrElse(p, 0) == 1))
      assert(seen.getOrElse(Pattern.root(cards.length), 0) == 0)
    }
  }

  test("Rule 1 generator is found by X-ing the right-most deterministic element") {
    forAllCards { cards =>
      for (p <- Pattern.allPatterns(cards) if p.level > 0) {
        val gen = Pattern(p.elems.updated(p.rightmostDet, X))
        assert(gen.childrenRule1(cards).contains(p))
      }
    }
  }

  test("Rule 2 worked example: X01 generates only XX1 (paper §III-D)") {
    assert(Pattern.parse("X01").parentsRule2 == Seq(Pattern.parse("XX1")))
  }

  test("Rule 2 worked example: 000 generates 00X, 0X0, X00") {
    assert(Pattern.parse("000").parentsRule2.toSet == Set(
      Pattern.parse("00X"), Pattern.parse("0X0"), Pattern.parse("X00")))
  }

  test("Theorem 4: Rule 2 generates every non-leaf node exactly once") {
    forAllCards { cards =>
      val seen = scala.collection.mutable.Map.empty[Pattern, Int]
      for (p <- Pattern.allPatterns(cards); par <- p.parentsRule2)
        seen(par) = seen.getOrElse(par, 0) + 1
      // non-leaf = has at least one X
      for (p <- Pattern.allPatterns(cards)) {
        if (p.level < cards.length) assert(seen.getOrElse(p, 0) == 1, s"node $p")
        else assert(seen.getOrElse(p, 0) == 0, s"leaf $p")
      }
    }
  }

  test("Rule 2 generator is found by setting the right-most X to 0") {
    forAllCards { cards =>
      for (p <- Pattern.allPatterns(cards) if p.level < cards.length) {
        val gen = Pattern(p.elems.updated(p.rightmostX, 0))
        assert(gen.parentsRule2.contains(p))
      }
    }
  }

  // ---------------------------------------------------------- enumeration

  test("allCombos enumerates Π c_i distinct combinations") {
    val cards = Vector(2, 3, 2)
    val combos = Pattern.allCombos(cards).toVector
    assert(combos.size == 12)
    assert(combos.distinct.size == 12)
    assert(combos.forall(c => c.indices.forall(i => c(i) >= 0 && c(i) < cards(i))))
  }

  test("allPatterns enumerates Π (c_i + 1) distinct patterns") {
    val cards = Vector(2, 2, 2)
    val pats = Pattern.allPatterns(cards).toVector
    assert(pats.size == 27) // paper: 3^3 = 27 nodes in Fig 2
    assert(pats.distinct.size == 27)
  }

  test("combo strides number the combinations 0 until Π c_i in allCombos order") {
    val cards   = Vector(3, 2, 4)
    val strides = Pattern.comboStrides(cards)
    assert(strides.toSeq == Seq(24, 8, 4, 1))
    val cells = Pattern.allCombos(cards).map(c => c.indices.map(i => c(i) * strides(i + 1)).sum).toVector
    assert(cells == (0 until 24))
    assert(Pattern.comboStrides(Vector.empty).toSeq == Seq(1))
    intercept[IllegalArgumentException](Pattern.comboStrides(Vector.fill(31)(2) :+ 2))
  }
}
