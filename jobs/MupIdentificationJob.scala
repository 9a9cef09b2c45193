package repro.jobs

import repro.core.mup.{DeepDiver, MupAlgorithm, PatternBreaker, PatternCombiner}

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
    val opts = JobEnv.options(args)
    val algo: MupAlgorithm = opts.getOrElse("algo", "deepdiver") match {
      case "deepdiver" => DeepDiver
      case "breaker"   => PatternBreaker
      case "combiner"  => PatternCombiner
      case other       => sys.error(s"unknown algo $other")
    }
    val maxLvl = opts.getOrElse("maxLevel", "0").toInt

    JobEnv.withSpark("mup-identification") { spark =>
      val in   = JobEnv.load(spark, opts, defaultD = 15)
      val t0   = System.nanoTime()
      val res  = algo.findMups(in.data, in.tau, if (maxLvl <= 0) Int.MaxValue else maxLvl)
      val secs = (System.nanoTime() - t0) / 1e9
      println(f"dataset=${in.dataset} n=${in.data.total} d=${in.data.dim} tau=${in.tau} algo=${algo.name} " +
        f"mups=${res.mups.size} time=$secs%.2fs covCalls=${res.covCalls}")
      println(s"level histogram: ${res.levelHistogram.toSeq.sortBy(_._1).mkString(", ")}")
      res.mups.toSeq.sortBy(p => (p.level, p.toString)).take(50).foreach(p => println(s"  MUP $p"))
    }
  }
}
