package repro.core

import repro.{Oracle, SparkSpec, TestData}
import repro.rdf.TripleOps
import repro.sparql.{BgpSql, SparqlParser}

/** Predicates and variables that name the Property Table's own columns —
  * the subject column `s` in either case, the `__` working columns — and
  * predicates that differ only in letter case, which Spark's column
  * resolution may ignore. Every
  * query is checked against DuckDB on PRoST in both modes and on the three
  * baselines, each on a written and reopened store.
  */
class ReservedNamesSpec extends SparkSpec {

  private lazy val graph = TripleOps.fromSeq(spark, Seq(
    ("a", "s", "b"),
    ("a", "s", "c"),
    ("a", "S", "x"),
    ("a", "ex:P", "1"),
    ("a", "ex:p", "2"),
    ("a", "__pt_0", "z"),
    ("b", "s", "c"),
    ("b", "S", "y"),
    ("b", "ex:P", "1"),
    ("b", "ex:p", "1"),
    ("b", "__pt_0", "z"),
    ("c", "S", "x"),
    ("c", "ex:p", "2"),
  ))

  private lazy val reopened = TestData.prostStore(graph)

  private val queries = Seq(
    "SELECT * WHERE { ?x s ?y . ?x S ?z . ?x ex:P ?u . ?x ex:p ?v . ?x __pt_0 ?w }",
    "SELECT ?x ?z WHERE { ?x ex:P \"1\" . ?x __pt_0 ?w . ?x S ?z }",
    "SELECT * WHERE { ?x ex:P ?v . ?x ex:p ?v }",
    "SELECT * WHERE { ?x s ?y . ?y S ?z . ?y ex:p ?v }",
    "SELECT ?y WHERE { a s ?y . ?y __pt_0 ?w }",
    // The list `s` explodes into the working column `__pt_1`, which the
    // variable ?__pt_0 then reads, while ?__pt_1 reads the subject.
    "SELECT * WHERE { ?__pt_1 S ?x . ?__pt_1 s ?__pt_0 }",
  )

  for (sparql <- queries; vpOnly <- Seq(false, true))
    test(s"reopened, ${if (vpOnly) "VP-only" else "mixed"}: oracle-correct on $sparql") {
      val q = SparqlParser.parse(sparql)
      Oracle.assertEquivalent(reopened.query(q, vpOnly), BgpSql.toSql(q), "triples" -> graph)
    }

  for ((name, run) <- TestData.configurations(graph).filterNot(_._1.startsWith("PRoST")); sparql <- queries)
    test(s"$name: oracle-correct on $sparql") {
      val q = SparqlParser.parse(sparql)
      Oracle.assertEquivalent(run(q), BgpSql.toSql(q), "triples" -> graph)
    }

  test("the star over every clashing predicate reads the Property Table") {
    val q = SparqlParser.parse(queries.head)
    val tree = reopened.plan(q, vpOnly = false)
    assert(tree.nodes.exists(_.isInstanceOf[PtJtNode]), tree.pretty)
  }
}
