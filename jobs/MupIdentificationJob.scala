package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.mup.{DeepDiver, MupAlgorithm, PatternBreaker, PatternCombiner}
import repro.spark.{CoverageData, SparkCoverage}

/** spark-submit entrypoint for MUP identification (Problem 1).
  *
  * {{{
  * spark-submit --class repro.jobs.MupIdentificationJob repro.jar \
  *   [dataset=airbnb|bluenile|compas] [n=100000] [d=15] [tauRate=0.001] \
  *   [algo=deepdiver|breaker|combiner] [maxLevel=0 (0 = unlimited)]
  * }}}
  *
  * Prints the MUP count, the per-level histogram, and up to 50 MUPs.
  */
object MupIdentificationJob {
  def main(args: Array[String]): Unit = {
    val opts = args.map(_.split("=", 2)).collect { case Array(k, v) => k -> v }.toMap
    val dataset  = opts.getOrElse("dataset", "airbnb")
    val n        = opts.getOrElse("n", "100000").toLong
    val d        = opts.getOrElse("d", "15").toInt
    val tauRate  = opts.getOrElse("tauRate", "0.001").toDouble
    val algoName = opts.getOrElse("algo", "deepdiver")
    val maxLvl   = opts.getOrElse("maxLevel", "0").toInt

    JobEnv.withSpark("mup-identification") { spark =>
      val (df, attrs, cards) = dataset match {
        case "airbnb"   => (CoverageData.airbnb(spark, n, d), CoverageData.attrNames(d), CoverageData.airbnbCards(d))
        case "bluenile" => (CoverageData.bluenile(spark, n), CoverageData.attrNames(7), CoverageData.bluenileCards)
        case "compas"   => (CoverageData.compas(spark), CoverageData.compasAttrs, CoverageData.compasCards)
        case other      => sys.error(s"unknown dataset $other")
      }
      val algo: MupAlgorithm = algoName match {
        case "breaker"  => PatternBreaker
        case "combiner" => PatternCombiner
        case _          => DeepDiver
      }
      val data = SparkCoverage.collectCompressed(df, attrs, cards)
      // τ from the rows actually read (compas ignores the requested n)
      val tau  = math.max(1L, (tauRate * data.total).toLong)
      val t0   = System.nanoTime()
      val res  = algo.findMups(data, tau, if (maxLvl <= 0) Int.MaxValue else maxLvl)
      val secs = (System.nanoTime() - t0) / 1e9
      println(f"dataset=$dataset n=${data.total} d=${cards.length} tau=$tau algo=${algo.name} " +
        f"mups=${res.mups.size} time=$secs%.2fs covCalls=${res.covCalls}")
      println(s"level histogram: ${res.levelHistogram.toSeq.sortBy(_._1).mkString(", ")}")
      res.mups.toSeq.sortBy(p => (p.level, p.toString)).take(50).foreach(p => println(s"  MUP $p"))
    }
  }
}
