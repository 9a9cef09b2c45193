package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The shared (attribute, value | X) bit matrix behind the three indices. */
class PatternBitsSpec extends AnyFunSuite {

  test("below and above match brute-force generalizes as the items grow through 63, 64, 65 and 128") {
    val rnd   = new Random(6465L)
    val cards = Vector(3, 2, 4, 2, 3)
    val bits  = new PatternBits(cards)
    val items = ArrayBuffer.empty[Pattern]
    val all   = Pattern.allPatterns(cards).toVector
    def randomCombo(): Pattern = Pattern(Vector.tabulate(cards.size)(i => rnd.nextInt(cards(i))))
    def randomItem(): Pattern =
      Pattern(Vector.tabulate(cards.size)(i => if (rnd.nextInt(3) == 0) Pattern.X else rnd.nextInt(cards(i))))
    def bit(v: Array[Long], j: Int): Boolean = (v(j >>> 6) >>> (j & 63) & 1L) == 1L
    /** The item ids of a query result; no bit may be set past the last item. */
    def ids(v: Array[Long]): Set[Int] =
      if (v == null) Set.empty
      else {
        val set = items.indices.filter(bit(v, _)).toSet
        assert((0 until bits.words).map(w => java.lang.Long.bitCount(v(w))).sum == set.size, "bit past the last item")
        set
      }
    def check(): Unit = {
      assert(bits.size == items.size && bits.words == (items.size + 63) / 64)
      for (i <- cards.indices; s <- 0 to cards(i)) {
        val x = bits.exact(i)(cards(i))
        for (w <- bits.exact(i)(s).indices if w >= bits.words) assert(bits.exact(i)(s)(w) == 0L, s"exact($i)($s) word $w")
        if (s < cards(i)) {
          val h = bits.hit(i)(s)
          for (w <- h.indices)
            assert(h(w) == (if (w < bits.words) bits.exact(i)(s)(w) | x(w) else 0L), s"hit($i)($s) word $w")
        }
      }
      val queries = Pattern.root(cards.size) +: (Vector.fill(8)(randomCombo()) ++ Vector.fill(8)(all(rnd.nextInt(all.size))))
      for (q <- queries ++ items.takeRight(2)) {
        assert(ids(bits.below(q)) == items.indices.filter(j => q.generalizes(items(j))).toSet, s"below($q)")
        assert(ids(bits.above(q)) == items.indices.filter(j => items(j).generalizes(q)).toSet, s"above($q)")
      }
    }
    check()
    for (k <- 1 to 130) {
      val p = if (rnd.nextInt(4) == 0) randomCombo() else randomItem()
      bits.add(p.elems)
      items += p
      if (Set(1, 63, 64, 65, 128, 129, 130)(k)) check()
    }
  }

  test("add rejects a wrong arity or a code outside [0, c_i) ∪ {X}") {
    val bits = new PatternBits(Vector(2, 3))
    intercept[IllegalArgumentException](bits.add(Vector(0)))
    intercept[IllegalArgumentException](bits.add(Vector(0, 3)))
    intercept[IllegalArgumentException](bits.add(Vector(-2, 0)))
    bits.add(Vector(Pattern.X, 2))
    assert(bits.size == 1)
    // the rejected (0, 3) left no bit behind at attribute 0
    assert(bits.exact(0)(0)(0) == 0L && bits.exact(0)(2)(0) == 1L)
  }
}
