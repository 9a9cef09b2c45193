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
    /** The item ids of a stored vector, which must be zero past `words`. */
    def stored(v: Array[Long], name: String): Set[Int] = {
      for (w <- v.indices if w >= bits.words) assert(v(w) == 0L, s"$name word $w")
      ids(v)
    }
    def check(): Unit = {
      assert(bits.size == items.size && bits.words == (items.size + 63) / 64)
      for (i <- cards.indices) {
        assert(stored(bits.x(i), s"x($i)") == items.indices.filter(j => items(j).elems(i) == Pattern.X).toSet, s"x($i)")
        for (v <- 0 until cards(i))
          assert(stored(bits.hit(i)(v), s"hit($i)($v)") ==
            items.indices.filter(j => Set(v, Pattern.X)(items(j).elems(i))).toSet, s"hit($i)($v)")
      }
      val queries = Pattern.root(cards.size) +: (Vector.fill(8)(randomCombo()) ++ Vector.fill(8)(all(rnd.nextInt(all.size))))
      for (q <- queries ++ items.takeRight(2)) {
        val below = ids(bits.below(q))
        val agree = items.indices.filter(j => cards.indices.forall(i => !q.isDet(i) || Set(q.elems(i), Pattern.X)(items(j).elems(i))))
        assert(below == agree.toSet, s"below($q)")
        // on items without X (value combinations) agreeing is being generalized
        for (j <- items.indices if items(j).level == cards.size)
          assert(below(j) == q.generalizes(items(j)), s"below($q) at combo ${items(j)}")
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
    def snapshot = (bits.x.toSeq ++ bits.hit.toSeq.flatMap(_.toSeq)).map(_.toVector)
    // a rejected item leaves no bit behind, checked before any later add
    def rejects(elems: Vector[Int]): Unit = {
      val before = snapshot
      intercept[IllegalArgumentException](bits.add(elems))
      assert(snapshot == before, s"rejected $elems left a bit behind")
    }
    rejects(Vector(0))
    rejects(Vector(0, 3))
    rejects(Vector(-2, 0))
    assert(bits.size == 0)
    bits.add(Vector(Pattern.X, 2))
    rejects(Vector(1, 3))
    assert(bits.size == 1)
    assert(bits.x(0)(0) == 1L && bits.hit(0)(0)(0) == 1L && bits.hit(0)(1)(0) == 1L)
    assert(bits.x(1)(0) == 0L && bits.hit(1).map(_(0)).toSeq == Seq(0L, 0L, 1L))
  }
}
