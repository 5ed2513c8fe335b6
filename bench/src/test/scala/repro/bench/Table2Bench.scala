package repro.bench

import repro.SparkSpec
import repro.harness.BenchEnv

/** Reproduces **Table 2** of the paper: average querying time per query
  * group (Complex, Snowflake, Linear, Star) for PRoST, S2RDF, Rya and
  * SPARQLGX over the same graph and query set.
  *
  * Expected shape (paper): S2RDF fastest overall thanks to ExtVP; PRoST
  * close behind and consistently good; SPARQLGX roughly an order of
  * magnitude behind PRoST; Rya the worst on average, catastrophically so
  * on join-heavy groups.
  */
class Table2Bench extends SparkSpec {
  import BenchFixture.env
  import BenchEnv.groupAverages

  private def timings(system: String) = env.querySystems.toMap.apply(system)

  test("Table 2: run the query set on all four systems and print the table") {
    println(env.table2)
    env.querySystems.foreach { case (sys, ts) =>
      assert(ts.size == 20, s"$sys ran ${ts.size} of 20 queries")
    }
  }

  test("all four systems return identical row counts per query") {
    val byQuery = env.querySystems.map { case (sys, ts) => sys -> ts.map(t => t.query -> t.rows).toMap }
    val (refSys, ref) = byQuery.head
    byQuery.tail.foreach { case (sys, counts) =>
      counts.foreach { case (q, n) =>
        assert(n == ref(q), s"$q: $sys returned $n rows, $refSys returned ${ref(q)}")
      }
    }
  }

  test("shape: PRoST beats SPARQLGX in every query group") {
    val p = groupAverages(timings("PRoST"))
    val g = groupAverages(timings("SPARQLGX"))
    for (grp <- Seq("C", "F", "L", "S"))
      assert(p(grp) < g(grp), f"group $grp: PRoST ${p(grp)}%.0fms vs SPARQLGX ${g(grp)}%.0fms")
  }

  test("shape: Rya has the worst overall average") {
    val overall = env.querySystems.map { case (sys, ts) =>
      sys -> ts.map(_.millis).sum.toDouble / ts.size
    }.toMap
    assert(overall("Rya") > overall.removed("Rya").values.max,
      overall.map { case (k, v) => f"$k=$v%.0f" }.mkString(", "))
  }

  test("shape: Rya's pain concentrates on join-heavy groups (C worst for Rya)") {
    val r = groupAverages(timings("Rya"))
    assert(r("C") > r("S"), f"C=${r("C")}%.0f S=${r("S")}%.0f")
  }

  test("shape: S2RDF is competitive with PRoST overall (precomputation pays off)") {
    val pAll = timings("PRoST").map(_.millis).sum.toDouble
    val sAll = timings("S2RDF").map(_.millis).sum.toDouble
    assert(sAll < 2.5 * pAll, f"S2RDF=$sAll%.0fms total vs PRoST=$pAll%.0fms total")
  }
}
