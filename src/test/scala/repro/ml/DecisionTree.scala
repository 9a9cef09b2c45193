package repro.ml

import DecisionTree.{Leaf, Node, Split}

/** A CART-style decision tree over categorical features with binary labels —
  * the stand-in for the scikit-learn classifier of paper §V-B2 (Fig 11).
  *
  * Splits are multiway on one categorical attribute (one branch per value),
  * chosen to minimize the count-weighted gini impurity of the children; a
  * node stops splitting at `maxDepth`, below `minSamplesSplit`, on purity, or
  * when every candidate split would create a branch smaller than
  * `minSamplesLeaf` (scikit-learn's `min_samples_leaf`). Unseen branches fall
  * back to the node's majority label — exactly the failure mode the coverage
  * experiment probes: regions with no training data inherit the majority
  * behaviour of a broader population.
  */
final class DecisionTree(maxDepth: Int = 6, minSamplesSplit: Int = 4,
                         minSamplesLeaf: Int = 1) {

  private var rootOpt: Option[Node] = None
  private var dim = 0

  /** Fit on integer-coded rows and 0/1 labels. */
  def fit(rows: IndexedSeq[IndexedSeq[Int]], labels: IndexedSeq[Int]): this.type = {
    require(rows.nonEmpty, "empty training set")
    require(rows.length == labels.length, "rows/labels length mismatch")
    dim = rows.head.length
    rootOpt = Some(grow(rows.indices.toArray, rows, labels, 0))
    this
  }

  def predict(row: IndexedSeq[Int]): Int = {
    require(rootOpt.nonEmpty, "predict before fit")
    var node = rootOpt.get
    var out  = -1
    while (out < 0) node match {
      case Leaf(l) => out = l
      case Split(a, br, fb) =>
        br.get(row(a)) match {
          case Some(child) => node = child
          case None        => out = fb
        }
    }
    out
  }

  def predictAll(rows: IndexedSeq[IndexedSeq[Int]]): IndexedSeq[Int] = rows.map(predict)

  private def majority(idx: Array[Int], labels: IndexedSeq[Int]): Int = {
    var ones = 0
    for (i <- idx) ones += labels(i)
    if (ones * 2 >= idx.length) 1 else 0
  }

  private def gini(idx: Array[Int], labels: IndexedSeq[Int]): Double = {
    if (idx.isEmpty) return 0.0
    var ones = 0
    for (i <- idx) ones += labels(i)
    val p = ones.toDouble / idx.length
    2.0 * p * (1.0 - p)
  }

  private def grow(idx: Array[Int], rows: IndexedSeq[IndexedSeq[Int]],
                   labels: IndexedSeq[Int], depth: Int): Node = {
    val maj  = majority(idx, labels)
    val imp  = gini(idx, labels)
    if (depth >= maxDepth || idx.length < minSamplesSplit || imp == 0.0) return Leaf(maj)

    // Like scikit-learn's CART: while a node is impure, take the best split
    // even at zero gini gain (multiway children can become splittable on
    // another attribute — e.g. XOR). Splitting never increases weighted gini.
    var bestAttr = -1
    var bestImp  = Double.MaxValue
    var bestGroups: Map[Int, Array[Int]] = null
    for (a <- 0 until dim) {
      val groups = idx.groupBy(i => rows(i)(a))
      if (groups.size > 1 && groups.valuesIterator.forall(_.length >= minSamplesLeaf)) {
        val w = groups.valuesIterator.map(g => g.length * gini(g, labels)).sum / idx.length
        if (w < bestImp - 1e-12) { bestImp = w; bestAttr = a; bestGroups = groups }
      }
    }
    if (bestAttr < 0) Leaf(maj)
    else Split(
      bestAttr,
      bestGroups.map { case (v, g) => v -> grow(g, rows, labels, depth + 1) },
      maj,
    )
  }
}

object DecisionTree {
  private sealed trait Node
  private final case class Leaf(label: Int) extends Node
  private final case class Split(attr: Int, branches: Map[Int, Node], fallback: Int) extends Node
}
