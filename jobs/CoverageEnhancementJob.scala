package repro.jobs

import repro.core.enhance.{GreedyHitter, LevelExpansion}
import repro.core.mup.DeepDiver

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
    val opts   = JobEnv.options(args)
    val lambda = opts.getOrElse("lambda", "3").toInt

    JobEnv.withSpark("coverage-enhancement") { spark =>
      val in    = JobEnv.load(spark, opts, defaultD = 13)
      val cards = in.data.cards
      val mups  = DeepDiver.findMups(in.data, in.tau, lambda).mups
      val toHit = LevelExpansion.uncoveredAtLevel(mups, cards, lambda).toVector
      val t0    = System.nanoTime()
      val res   = GreedyHitter.run(toHit, cards)
      val secs  = (System.nanoTime() - t0) / 1e9
      println(f"dataset=${in.dataset} n=${in.data.total} d=${cards.length} tau=${in.tau} lambda=$lambda " +
        f"input=${toHit.size} output=${res.combos.size} time=$secs%.2fs")
      res.combos.take(50).foreach(c => println(s"  collect ${c.mkString("[", ",", "]")}"))
    }
  }
}
