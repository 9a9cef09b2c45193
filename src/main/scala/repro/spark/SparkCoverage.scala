package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.CompressedData

/** The Spark scan layer.
  *
  * The paper's searches never touch raw tuples: Appendix A first aggregates
  * identical value combinations into (combo, count) pairs. Over a large
  * dataset that is exactly one Catalyst `groupBy(attrs).count()` — the single
  * full scan. The resulting table is bounded by `min(n, Π c_i)` rows and is
  * collected to the driver, where every search and the enhancement run in
  * memory on [[CompressedData]].
  */
object SparkCoverage {

  /** One scan: aggregate identical value combinations. Output columns are
    * `attrs :+ "cnt"`.
    */
  def compress(df: DataFrame, attrs: Seq[String]): DataFrame =
    df.groupBy(attrs.map(col): _*).agg(count(lit(1)).as("cnt"))

  /** Collect the compressed form into the in-memory search representation.
    * Values must be non-NULL integer codes in `[0, c_i)`; a NULL or an
    * out-of-range code fails with an `IllegalArgumentException`.
    */
  def collectCompressed(df: DataFrame, attrs: Seq[String], cards: IndexedSeq[Int]): CompressedData = {
    val rows = compress(df, attrs).collect()
    val pairs = rows.iterator.map { r =>
      val combo = attrs.indices.map { i =>
        require(!r.isNullAt(i), s"NULL in attribute column ${attrs(i)}")
        r.getAs[Number](i).intValue()
      }: IndexedSeq[Int]
      (combo, r.getAs[Number](attrs.length).longValue())
    }.toVector
    CompressedData.fromAggregated(pairs, cards)
  }
}
