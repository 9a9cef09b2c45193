package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.CompressedData
import repro.spark.{CoverageData, SparkCoverage}

/** The front end shared by the spark-submit entrypoints: session management,
  * `key=value` arguments, and the one scan that turns the chosen dataset into
  * [[CompressedData]] with τ derived from it.
  */
object JobEnv {

  /** Reuse an already-running SparkSession (so the jobs are callable
    * in-process, e.g. from tests) and only stop a session this job itself
    * created.
    */
  def withSpark(appName: String)(body: SparkSession => Unit): Unit = {
    val preExisting = SparkSession.getActiveSession.orElse(SparkSession.getDefaultSession)
    val spark = preExisting.getOrElse(
      SparkSession.builder.appName(appName).getOrCreate())
    try body(spark)
    finally if (preExisting.isEmpty) spark.stop()
  }

  /** `key=value` arguments as a map; other arguments are ignored. */
  def options(args: Array[String]): Map[String, String] =
    args.map(_.split("=", 2)).collect { case Array(k, v) => k -> v }.toMap

  /** A job's input: the compressed dataset and the coverage threshold. */
  final case class Input(dataset: String, data: CompressedData, tau: Long)

  /** Generate `dataset=airbnb|bluenile|compas` (with `n`, and `d` for airbnb,
    * defaulting to `defaultD`), compress it with the one scan, and derive
    * τ = max(1, ⌊tauRate · rows read⌋) — compas ignores the requested `n`.
    */
  def load(spark: SparkSession, opts: Map[String, String], defaultD: Int): Input = {
    val dataset = opts.getOrElse("dataset", "airbnb")
    val n       = opts.getOrElse("n", "100000").toLong
    val d       = opts.getOrElse("d", defaultD.toString).toInt
    val tauRate = opts.getOrElse("tauRate", "0.001").toDouble
    val (df, attrs, cards) = dataset match {
      case "airbnb"   => (CoverageData.airbnb(spark, n, d), CoverageData.attrNames(d), CoverageData.airbnbCards(d))
      case "bluenile" => (CoverageData.bluenile(spark, n), CoverageData.attrNames(7), CoverageData.bluenileCards)
      case "compas"   => (CoverageData.compas(spark), CoverageData.compasAttrs, CoverageData.compasCards)
      case other      => sys.error(s"unknown dataset $other")
    }
    val data = SparkCoverage.collectCompressed(df, attrs, cards)
    Input(dataset, data, math.max(1L, (tauRate * data.total).toLong))
  }
}
