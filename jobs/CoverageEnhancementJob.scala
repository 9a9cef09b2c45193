package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.enhance.{GreedyHitter, LevelExpansion}
import repro.core.mup.DeepDiver
import repro.spark.{CoverageData, SparkCoverage}

/** spark-submit entrypoint for coverage enhancement (Problem 2).
  *
  * {{{
  * spark-submit --class repro.jobs.CoverageEnhancementJob repro.jar \
  *   [dataset=airbnb] [n=100000] [d=13] [tauRate=0.001] [lambda=3]
  * }}}
  *
  * Identifies MUPs, expands to the uncovered patterns at level λ, and prints
  * the value combinations GREEDY suggests collecting.
  */
object CoverageEnhancementJob {
  def main(args: Array[String]): Unit = {
    val opts = args.map(_.split("=", 2)).collect { case Array(k, v) => k -> v }.toMap
    val dataset = opts.getOrElse("dataset", "airbnb")
    val n       = opts.getOrElse("n", "100000").toLong
    val d       = opts.getOrElse("d", "13").toInt
    val tauRate = opts.getOrElse("tauRate", "0.001").toDouble
    val lambda  = opts.getOrElse("lambda", "3").toInt

    JobEnv.withSpark("coverage-enhancement") { spark =>
      val (df, attrs, cards) = dataset match {
        case "airbnb"   => (CoverageData.airbnb(spark, n, d), CoverageData.attrNames(d), CoverageData.airbnbCards(d))
        case "bluenile" => (CoverageData.bluenile(spark, n), CoverageData.attrNames(7), CoverageData.bluenileCards)
        case "compas"   => (CoverageData.compas(spark), CoverageData.compasAttrs, CoverageData.compasCards)
        case other      => sys.error(s"unknown dataset $other")
      }
      val data = SparkCoverage.collectCompressed(df, attrs, cards)
      // τ from the rows actually read (compas ignores the requested n)
      val tau  = math.max(1L, (tauRate * data.total).toLong)
      val mups = DeepDiver.findMups(data, tau, lambda).mups
      val toHit = LevelExpansion.uncoveredAtLevel(mups, cards, lambda).toVector
      val t0    = System.nanoTime()
      val res   = GreedyHitter.run(toHit, cards)
      val secs  = (System.nanoTime() - t0) / 1e9
      println(f"dataset=$dataset n=${data.total} d=${cards.length} tau=$tau lambda=$lambda " +
        f"input=${toHit.size} output=${res.combos.size} time=$secs%.2fs")
      res.combos.take(50).foreach(c => println(s"  collect ${c.mkString("[", ",", "]")}"))
    }
  }
}
