package repro.jobs

import repro.core.mup.DeepDiver
import repro.spark.{CoverageData, SparkCoverage}

/** spark-submit entrypoint reproducing the §V-B coverage audit of the COMPAS
  * stand-in: MUPs at τ=10 over (sex, age, race, marital), per-level counts,
  * and the widowed-Hispanic (`XX23`) cell the paper highlights.
  */
object CompasAuditJob {
  def main(args: Array[String]): Unit = {
    JobEnv.withSpark("compas-audit") { spark =>
      val df   = CoverageData.compas(spark).cache()
      val data = SparkCoverage.collectCompressed(df, CoverageData.compasAttrs, CoverageData.compasCards)
      val res  = DeepDiver.findMups(data, tau = 10)
      println(s"rows=${data.total} distinctCombos=${data.distinctCombos} mups=${res.mups.size}")
      println(s"level histogram: ${res.levelHistogram.toSeq.sortBy(_._1).mkString(", ")}")
      val wh = df.filter("race = 2 AND marital = 3")
      println(s"widowed Hispanics: ${wh.count()} (recidivists: ${wh.filter("recid = 1").count()})")
      res.mups.toSeq.sortBy(p => (p.level, p.toString)).foreach(p => println(s"  MUP $p"))
    }
  }
}
