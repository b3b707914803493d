package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

/** The command line of [[ExtractJob]], read before any Spark session starts. */
class ExtractJobSpec extends AnyFunSuite {

  test("the search mode is greedy or exhaustive, exhaustive by default") {
    assert(ExtractJob.arguments(Array("in.log", "out")) == (("in.log", "out", true)))
    assert(ExtractJob.arguments(Array("in.log", "out", "exhaustive")) == (("in.log", "out", true)))
    assert(ExtractJob.arguments(Array("in.log", "out", "greedy")) == (("in.log", "out", false)))
  }

  test("an unknown mode or argument count fails with the usage message") {
    for (args <- Vector(Array("in.log", "out", "Greedy"), Array("in.log", "out", "exhaustve"), Array("in.log"),
        Array("in.log", "out", "greedy", "extra"))) {
      val e = intercept[IllegalArgumentException](ExtractJob.arguments(args))
      assert(e.getMessage.startsWith("usage: ExtractJob"), args.mkString(" "))
    }
  }
}
