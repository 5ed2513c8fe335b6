package repro.sparql

import org.scalatest.funsuite.AnyFunSuite

class SparqlParserSpec extends AnyFunSuite {
  import SparqlParser.{parse, ParseException}

  test("single pattern with all variables") {
    val q = parse("SELECT ?s ?o WHERE { ?s ex:p ?o }")
    assert(q.patterns == Seq(TriplePattern(Var("s"), Iri("ex:p"), Var("o"))))
    assert(q.projection == Seq(Var("s"), Var("o")))
    assert(!q.distinct)
  }

  test("SELECT * projects every variable in first-seen order") {
    val q = parse("SELECT * WHERE { ?a ex:p ?b . ?b ex:q ?c }")
    assert(q.projection.isEmpty)
    assert(q.effectiveProjection == Seq(Var("a"), Var("b"), Var("c")))
  }

  test("DISTINCT flag is recognised") {
    assert(parse("SELECT DISTINCT ?a WHERE { ?a ex:p ?b }").distinct)
  }

  test("distinct keyword is case-insensitive") {
    assert(parse("select distinct ?a where { ?a ex:p ?b }").distinct)
  }

  test("string literal object") {
    val q = parse("""SELECT ?s WHERE { ?s foaf:age "25" }""")
    assert(q.patterns.head.o == Lit("25"))
  }

  test("bare number becomes a literal") {
    val q = parse("SELECT ?s WHERE { ?s foaf:age 25 }")
    assert(q.patterns.head.o == Lit("25"))
  }

  test("a dot after a number ends the pattern, not the number") {
    val q = parse("SELECT * WHERE { ?v0 foaf:age 30. ?v0 foaf:height 1.75. }")
    assert(q.patterns.map(_.o) == Vector(Lit("30"), Lit("1.75")))
  }

  test("error: a number with two dots") {
    val e = intercept[ParseException](parse("SELECT * WHERE { ?v0 foaf:age 1.2.3 }"))
    assert(e.getMessage.contains("'1.2.3'"), e.getMessage)
    val q = parse("SELECT * WHERE { ?v0 foaf:age 1.2 . ?v0 foaf:rank -3 . ?v0 foaf:height 30. }")
    assert(q.patterns.map(_.o) == Vector(Lit("1.2"), Lit("-3"), Lit("30")))
  }

  test("prefixed IRI object") {
    val q = parse("SELECT ?s WHERE { ?s rdf:type wsdbm:User }")
    assert(q.patterns.head.o == Iri("wsdbm:User"))
  }

  test("angle-bracket IRIs keep their content verbatim") {
    val q = parse("SELECT ?s WHERE { ?s <http://example.org/p> ?o }")
    assert(q.patterns.head.p == Iri("http://example.org/p"))
  }

  test("constant subject is parsed") {
    val q = parse("SELECT ?o WHERE { wsdbm:Retailer2 gr:offers ?o }")
    assert(q.patterns.head.s == Iri("wsdbm:Retailer2"))
  }

  test("multiple patterns separated by dots") {
    val q = parse("SELECT * WHERE { ?a ex:p ?b . ?b ex:q ?c . ?c ex:r ?d }")
    assert(q.patterns.length == 3)
  }

  test("trailing dot before closing brace is tolerated") {
    val q = parse("SELECT ?a WHERE { ?a ex:p ?b . }")
    assert(q.patterns.length == 1)
  }

  test("missing dots between patterns are tolerated") {
    val q = parse("SELECT * WHERE { ?a ex:p ?b ?b ex:q ?c }")
    assert(q.patterns.length == 2)
  }

  test("newlines and extra whitespace are ignored") {
    val q = parse("SELECT ?a\nWHERE {\n  ?a ex:p ?b .\n}\n")
    assert(q.patterns.length == 1)
  }

  test("comments are skipped") {
    val q = parse("# header\nSELECT ?a WHERE { ?a ex:p ?b . # inline\n }")
    assert(q.patterns.length == 1)
  }

  test("PREFIX declarations are accepted and skipped") {
    val q = parse("PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>\nSELECT ?a WHERE { ?a wsdbm:likes ?b }")
    assert(q.patterns.head.p == Iri("wsdbm:likes"))
  }

  test("error: a PREFIX declaration whose target is not an <IRI>") {
    val e = intercept[ParseException](parse("PREFIX ex: ex:notAnIri SELECT ?a WHERE { ?a ex:p ?b }"))
    assert(e.getMessage.contains("'ex:notAnIri'"), e.getMessage)
  }

  test("error: a PREFIX declaration without a prefix name") {
    val e = intercept[ParseException](parse("PREFIX SELECT ?a WHERE { ?a ex:p ?b }"))
    assert(e.getMessage.contains("prefix name"), e.getMessage)
    assert(e.getMessage.contains("found 'SELECT'"), e.getMessage)
  }

  test("escaped quote inside a literal") {
    val q = parse("SELECT ?s WHERE { ?s ex:p \"a\\\"b\" }")
    assert(q.patterns.head.o == Lit("a\"b"))
  }

  test("escaped tab inside a literal is decoded") {
    val q = parse("SELECT ?s WHERE { ?s ex:p \"a\\tb\" }")
    assert(q.patterns.head.o == Lit("a\tb"))
  }

  test("error: an escape SPARQL does not define is named") {
    val e = intercept[ParseException](parse("SELECT ?s WHERE { ?s ex:p \"\\q\" }"))
    assert(e.getMessage.contains("'\\q'"), e.getMessage)
  }

  test("dollar-sign variables are accepted") {
    val q = parse("SELECT $a WHERE { $a ex:p ?b }")
    assert(q.projection == Seq(Var("a")))
  }

  test("variable used in subject and object positions") {
    val q = parse("SELECT ?x WHERE { ?x ex:p ?x }")
    assert(q.patterns.head.s == q.patterns.head.o)
  }

  test("allVariables deduplicates and keeps order") {
    val q = parse("SELECT * WHERE { ?b ex:p ?a . ?a ex:q ?b }")
    assert(q.allVariables == Seq(Var("b"), Var("a")))
  }

  test("keywords are case-insensitive") {
    val q = parse("select ?a wHeRe { ?a ex:p ?b }")
    assert(q.projection == Seq(Var("a")))
  }

  test("error: projecting an unbound variable") {
    val e = intercept[ParseException](parse("SELECT ?z WHERE { ?a ex:p ?b }"))
    assert(e.getMessage.contains("not bound"))
  }

  test("error: empty BGP") {
    intercept[ParseException](parse("SELECT ?a WHERE { }"))
  }

  test("error: missing WHERE") {
    intercept[ParseException](parse("SELECT ?a { ?a ex:p ?b }"))
  }

  test("error: missing closing brace") {
    intercept[ParseException](parse("SELECT ?a WHERE { ?a ex:p ?b"))
  }

  test("error: variable as predicate") {
    intercept[ParseException](parse("SELECT ?a WHERE { ?a ?p ?b }"))
  }

  test("error: literal as predicate") {
    intercept[ParseException](parse("SELECT ?a WHERE { ?a \"p\" ?b }"))
  }

  test("error: no projection") {
    intercept[ParseException](parse("SELECT WHERE { ?a ex:p ?b }"))
  }

  test("error: empty variable name") {
    intercept[ParseException](parse("SELECT ? WHERE { ?a ex:p ?b }"))
  }

  test("error: unterminated string") {
    intercept[ParseException](parse("SELECT ?a WHERE { ?a ex:p \"oops }"))
  }

  test("error: unterminated IRI") {
    intercept[ParseException](parse("SELECT ?a WHERE { ?a <http://x ?b }"))
  }

  test("error: garbage after incomplete pattern") {
    intercept[ParseException](parse("SELECT ?a WHERE { ?a ex:p }"))
  }

  test("error: a token after the closing brace") {
    val e = intercept[ParseException](parse("SELECT ?a WHERE { ?a ex:p ?b } LIMIT 5 garbage"))
    assert(e.getMessage.contains("'LIMIT'"), e.getMessage)
  }

  test("error: a projection that mixes * with variables") {
    for ((query, found) <- Seq("SELECT ?a * WHERE { ?a ex:p ?b }" -> "'*'",
                               "SELECT * ?a WHERE { ?a ex:p ?b }" -> "'?a'")) {
      val e = intercept[ParseException](parse(query))
      assert(e.getMessage.contains(s"found $found"), e.getMessage)
    }
  }

  test("round trip: toString of a parsed query reparses to the same AST") {
    val original = parse("""SELECT DISTINCT ?a ?b WHERE { ?a ex:p ?b . ?b ex:q "lit" . ?a rdf:type ex:C }""")
    val reparsed = parse(original.toString)
    assert(reparsed == original)
  }
}
