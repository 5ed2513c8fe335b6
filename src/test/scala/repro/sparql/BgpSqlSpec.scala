package repro.sparql

import org.scalatest.funsuite.AnyFunSuite

class BgpSqlSpec extends AnyFunSuite {
  import SparqlParser.parse

  test("single pattern compiles to one table reference") {
    val sql = BgpSql.toSql(parse("SELECT ?s ?o WHERE { ?s ex:p ?o }"))
    assert(sql == "SELECT t0.s AS s, t0.o AS o FROM triples t0 WHERE t0.p = 'ex:p'")
  }

  test("shared variable becomes a join condition") {
    val sql = BgpSql.toSql(parse("SELECT * WHERE { ?a ex:p ?b . ?b ex:q ?c }"))
    assert(sql.contains("t1.s = t0.o"))
    assert(sql.contains("FROM triples t0, triples t1"))
  }

  test("literal object becomes an equality constraint") {
    val sql = BgpSql.toSql(parse("""SELECT ?s WHERE { ?s foaf:age "25" }"""))
    assert(sql.contains("t0.o = '25'"))
  }

  test("IRI constant subject becomes an equality constraint") {
    val sql = BgpSql.toSql(parse("SELECT ?o WHERE { wsdbm:R1 gr:offers ?o }"))
    assert(sql.contains("t0.s = 'wsdbm:R1'"))
  }

  test("same variable twice in one pattern constrains s = o") {
    val sql = BgpSql.toSql(parse("SELECT ?x WHERE { ?x ex:p ?x }"))
    assert(sql.contains("t0.o = t0.s"))
  }

  test("DISTINCT is propagated") {
    val sql = BgpSql.toSql(parse("SELECT DISTINCT ?s WHERE { ?s ex:p ?o }"))
    assert(sql.startsWith("SELECT DISTINCT "))
  }

  test("projection aliases use bare variable names") {
    val sql = BgpSql.toSql(parse("SELECT ?v0 ?v3 WHERE { ?v0 ex:p ?v3 }"))
    assert(sql.contains("AS v0"))
    assert(sql.contains("AS v3"))
  }

  test("single quotes in constants are escaped") {
    val sql = BgpSql.toSql(BgpQuery(Seq(Var("s")),
      Seq(TriplePattern(Var("s"), Iri("ex:p"), Lit("it's")))))
    assert(sql.contains("'it''s'"))
  }

  test("star-shaped query joins every pattern on the shared subject") {
    val sql = BgpSql.toSql(parse("SELECT * WHERE { ?s ex:p ?a . ?s ex:q ?b . ?s ex:r ?c }"))
    assert(sql.contains("t1.s = t0.s"))
    assert(sql.contains("t2.s = t0.s"))
  }
}
