package repro.core

import org.apache.spark.sql.DataFrame

import repro.{Oracle, SparkSpec, TestData}
import repro.rdf.TripleOps
import repro.sparql.{BgpSql, SparqlParser}

/** Executor correctness on handcrafted graphs, every case checked against
  * DuckDB through the BGP→SQL compiler. These cases isolate the semantics
  * corners of the PT path (explodes, NULLs, repeated variables) and the
  * VP path (constants, self-joins).
  */
class ExecutorSpec extends SparkSpec {

  private lazy val graph = TripleOps.fromSeq(spark, Seq(
    // users with multi-valued follows and partial age coverage
    ("u1", "ex:follows", "u2"),
    ("u1", "ex:follows", "u3"),
    ("u2", "ex:follows", "u3"),
    ("u3", "ex:follows", "u1"),
    ("u1", "ex:age", "25"),
    ("u2", "ex:age", "30"),
    ("u1", "ex:name", "alice"),
    ("u2", "ex:name", "bob"),
    ("u3", "ex:name", "carol"),
    ("u1", "ex:likes", "p1"),
    ("u1", "ex:likes", "p2"),
    ("u2", "ex:likes", "p1"),
    ("p1", "ex:caption", "first"),
    ("p2", "ex:caption", "second"),
    ("p1", "ex:type", "ex:Product"),
    ("p2", "ex:type", "ex:Product"),
    ("u0", "ex:self", "u0"),
    ("u1", "ex:self", "u2"),
  ))

  private lazy val db = TestData.prostStore(graph)

  private def check(sparql: String): Unit = {
    val q = SparqlParser.parse(sparql)
    for (vpOnly <- Seq(false, true)) {
      val result = db.query(q, vpOnly)
      Oracle.assertEquivalent(result, BgpSql.toSql(q), "triples" -> graph)
    }
  }

  test("single pattern, all variables") {
    check("SELECT * WHERE { ?a ex:follows ?b }")
  }

  test("single pattern, literal object") {
    check("""SELECT ?a WHERE { ?a ex:age "25" }""")
  }

  test("single pattern, constant subject") {
    check("SELECT ?b WHERE { u1 ex:follows ?b }")
  }

  test("single pattern, both constants (ground, but projecting another var)") {
    check("""SELECT ?n WHERE { u1 ex:age "25" . u1 ex:name ?n }""")
  }

  test("self-join pattern ?x p ?x") {
    check("SELECT ?x WHERE { ?x ex:self ?x }")
  }

  test("star of scalars on the PT") {
    check("SELECT * WHERE { ?u ex:age ?a . ?u ex:name ?n }")
  }

  test("star with a multi-valued predicate (explode path)") {
    check("SELECT * WHERE { ?u ex:follows ?f . ?u ex:name ?n }")
  }

  test("star with two multi-valued predicates (double explode)") {
    check("SELECT * WHERE { ?u ex:follows ?f . ?u ex:likes ?l }")
  }

  test("star with a constant on a multi-valued predicate (explode, then match)") {
    check("SELECT ?n WHERE { ?u ex:likes p1 . ?u ex:name ?n }")
  }

  test("star with constants on two multi-valued predicates") {
    // u1 and u2 both like p1 and follow u3; u1's other elements drop out.
    check("SELECT ?n WHERE { ?u ex:likes p1 . ?u ex:follows u3 . ?u ex:name ?n }")
  }

  test("star where one member is absent for some subjects (NULL filtering)") {
    // u3 has no age: must not appear.
    check("SELECT * WHERE { ?u ex:name ?n . ?u ex:age ?a }")
  }

  test("chain: star joined to a VP node") {
    check("SELECT * WHERE { ?u ex:name ?n . ?u ex:likes ?p . ?p ex:caption ?c }")
  }

  test("chain of two VP nodes") {
    check("SELECT * WHERE { ?a ex:follows ?b . ?b ex:age ?x }")
  }

  test("triangle: cyclic variable constraints across nodes") {
    check("SELECT * WHERE { ?a ex:follows ?b . ?b ex:follows ?c . ?a ex:follows ?c }")
  }

  test("two stars joined (snowflake)") {
    check("""SELECT * WHERE {
      ?u ex:name ?n . ?u ex:likes ?p .
      ?p ex:caption ?c . ?p ex:type ex:Product }""")
  }

  test("repeated variable inside one PT group") {
    // ?u follows ?v and likes ?v — v must match in both columns.
    check("SELECT * WHERE { ?u ex:follows ?v . ?u ex:self ?v }")
  }

  test("subject variable equal to an object variable in the group") {
    check("SELECT * WHERE { ?u ex:self ?u . ?u ex:name ?n }")
  }

  test("constant subject on a PT group") {
    check("SELECT * WHERE { u1 ex:name ?n . u1 ex:age ?a }")
  }

  test("unknown predicate gives the empty result") {
    check("SELECT * WHERE { ?a ex:doesnotexist ?b }")
  }

  test("unknown predicate inside a star empties the whole group") {
    check("SELECT * WHERE { ?u ex:name ?n . ?u ex:doesnotexist ?x }")
  }

  test("DISTINCT collapses duplicate solutions") {
    check("SELECT DISTINCT ?u WHERE { ?u ex:likes ?p }")
  }

  test("projection narrows the output columns") {
    check("SELECT ?n WHERE { ?u ex:name ?n . ?u ex:likes ?p . ?p ex:caption ?c }")
  }

  test("disconnected patterns produce a cross join") {
    check("""SELECT * WHERE { ?a ex:age "25" . ?b ex:caption ?c }""")
  }

  test("empty intermediate results propagate to an empty answer") {
    check("""SELECT * WHERE { ?a ex:age "99" . ?a ex:name ?n }""")
  }

  test("literal constants never match IRIs in other positions") {
    check("""SELECT ?a WHERE { ?a ex:follows u2 . ?a ex:name "alice" }""")
  }

  test("bag semantics: duplicates from multi-valued joins are preserved") {
    // u1 likes p1,p2 both captioned -> u1 appears twice (no DISTINCT).
    val q = SparqlParser.parse("SELECT ?u WHERE { ?u ex:likes ?p . ?p ex:caption ?c }")
    val rows = db.query(q, vpOnly = false).collect()
    assert(rows.count(_.getString(0) == "u1") == 2)
    check("SELECT ?u WHERE { ?u ex:likes ?p . ?p ex:caption ?c }")
  }
}
