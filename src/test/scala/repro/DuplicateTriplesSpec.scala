package repro

import repro.rdf.TripleOps
import repro.sparql.{BgpSql, SparqlParser}

/** A source may hold one triple twice, and every engine answers over the
  * triples as given: a pattern matching a listed duplicate yields two
  * rows, as DuckDB's self-join does. In PRoST's Property Table the
  * duplicates sit twice in one list column, next to other values of the
  * same predicate, and a subject that matches nothing shares the table.
  */
class DuplicateTriplesSpec extends SparkSpec {

  private lazy val graph = TripleOps.fromSeq(spark, Seq(
    ("ex:a", "ex:dup", "ex:x"),
    ("ex:a", "ex:dup", "ex:x"),
    ("ex:a", "ex:dup", "ex:w"),
    ("ex:a", "ex:lit", "7"),
    ("ex:a", "ex:lit", "7"),
    ("ex:a", "ex:one", "ex:y"),
    ("ex:b", "ex:dup", "ex:w"),
    ("ex:b", "ex:lit", "8"),
    ("ex:b", "ex:one", "ex:y"),
  ))

  private val queries = Seq(
    "SELECT * WHERE { ?s ex:dup ex:x . ?s ex:one ?o }",
    """SELECT * WHERE { ?s ex:lit "7" . ?s ex:one ?o }""",
    "SELECT * WHERE { ?s ex:dup ?d . ?s ex:one ?o }",
    "SELECT * WHERE { ?s ex:dup ex:x }",
    """SELECT * WHERE { ?s ex:dup ex:x . ?s ex:lit "7" . ?s ex:one ?o }""",
  )

  for ((name, run) <- TestData.configurations(graph); sparql <- queries)
    test(s"$name: oracle-correct on $sparql") {
      val q = SparqlParser.parse(sparql)
      Oracle.assertEquivalent(run(q), BgpSql.toSql(q), "triples" -> graph)
    }
}
