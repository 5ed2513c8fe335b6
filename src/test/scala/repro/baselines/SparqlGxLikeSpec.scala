package repro.baselines

import repro.{SparkSpec, TestData}
import repro.sparql.SparqlParser
import repro.watdiv.WatDivQueries

class SparqlGxLikeSpec extends SparkSpec {

  /** The shared written text store. */
  private lazy val dir: String = TestData.sparqlGxDir

  for (nq <- WatDivQueries.All) {
    test(s"${nq.name}: SPARQLGX-like matches the oracle") {
      TestData.oracleCheck(TestData.sparqlGx.query(nq.query), nq.query)
    }
  }

  test("join ordering starts with a constant-bearing pattern when present") {
    val q = SparqlParser.parse(
      """SELECT * WHERE { ?a wsdbm:likes ?b . ?a wsdbm:subscribes wsdbm:Website3 }""")
    val ordered = TestData.sparqlGx.orderPatterns(q.patterns)
    assert(!ordered.head.o.isVariable)
  }

  test("join ordering keeps connectivity when possible") {
    val q = WatDivQueries.C1.query
    val ordered = TestData.sparqlGx.orderPatterns(q.patterns)
    var bound = ordered.head.variables.toSet
    ordered.tail.foreach { tp =>
      assert(tp.variables.exists(bound.contains),
        s"pattern $tp introduced without a shared variable")
      bound ++= tp.variables
    }
  }

  test("ordering covers every pattern exactly once") {
    val q = WatDivQueries.C2.query
    val ordered = TestData.sparqlGx.orderPatterns(q.patterns)
    assert(ordered.sortBy(_.toString) == q.patterns.sortBy(_.toString))
  }

  test("text write/load round trip answers a query correctly") {
    val loaded = SparqlGxLike.loadFrom(spark, dir)
    val nq = WatDivQueries.S4
    TestData.oracleCheck(loaded.query(nq.query), nq.query)
  }

  test("text storage uses gzip-compressed per-predicate partitions") {
    val sub = new java.io.File(s"$dir/data").listFiles()
      .filter(f => f.isDirectory && f.getName.startsWith("p="))
    assert(sub.length >= 40, s"expected one partition per predicate, got ${sub.length}")
    val gzFiles = sub.flatMap(_.listFiles()).filter(_.getName.endsWith(".gz"))
    assert(gzFiles.nonEmpty)
  }

  test("unknown predicate yields the empty result") {
    val q = SparqlParser.parse("SELECT * WHERE { ?a ex:missing ?b }")
    assert(TestData.sparqlGx.query(q).count() == 0)
  }
}
