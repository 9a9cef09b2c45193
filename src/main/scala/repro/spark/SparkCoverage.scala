package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ByteType, DataType, IntegerType, LongType, ShortType}
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
    * Attribute columns must be byte, short, int or long, and their values
    * non-NULL codes in `[0, c_i)`; another column type, a NULL or an
    * out-of-range code fails with an `IllegalArgumentException` naming it.
    */
  def collectCompressed(df: DataFrame, attrs: Seq[String], cards: IndexedSeq[Int]): CompressedData = {
    require(attrs.length == cards.length, s"${attrs.length} attributes but ${cards.length} cardinalities")
    val grouped = compress(df, attrs)
    for (f <- grouped.schema.take(attrs.length))
      require(codeTypes(f.dataType),
        s"attribute column ${f.name} has type ${f.dataType.simpleString}; codes must be byte, short, int or long")
    val rows = grouped.collect()
    val combos = rows.map { r =>
      Array.tabulate(attrs.length) { i =>
        require(!r.isNullAt(i), s"NULL in attribute column ${attrs(i)}")
        val code = r.getAs[Number](i).longValue()
        require(code >= 0 && code < cards(i),
          s"value $code out of range [0, ${cards(i)}) for attribute column ${attrs(i)}")
        code.toInt
      }
    }
    new CompressedData(cards, combos, rows.map(_.getLong(attrs.length)))
  }

  private val codeTypes = Set[DataType](ByteType, ShortType, IntegerType, LongType)
}
