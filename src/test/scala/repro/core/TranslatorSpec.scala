package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.sparql.{Iri, Lit, SparqlParser, TriplePattern, Var}

class TranslatorSpec extends AnyFunSuite {
  import SparqlParser.parse

  // Hand-made statistics: a big predicate, a mid one, two small ones.
  private val stats = GraphStats(Map(
    "ex:big"   -> PredicateStats(100000, 20000),
    "ex:mid"   -> PredicateStats(5000, 5000),
    "ex:small" -> PredicateStats(100, 100),
    "ex:tiny"  -> PredicateStats(10, 10),
  ))
  private val translator = new Translator(stats)

  /** The weight of the one-pattern node of `tp`. */
  private def weight(tp: TriplePattern): Double = translator.nodeWeight(VpJtNode(tp))

  test("patterns sharing a subject become one PT node") {
    val tree = translator.translate(parse(
      "SELECT * WHERE { ?s ex:mid ?a . ?s ex:small ?b . ?t ex:tiny ?c }"))
    val pts = tree.nodes.collect { case n: PtJtNode => n }
    val vps = tree.nodes.collect { case n: VpJtNode => n }
    assert(pts.size == 1 && pts.head.patterns.size == 2)
    assert(vps.size == 1)
  }

  test("single-pattern groups become VP nodes") {
    val tree = translator.translate(parse(
      "SELECT * WHERE { ?a ex:mid ?b . ?b ex:small ?c }"))
    assert(tree.nodes.forall(_.isInstanceOf[VpJtNode]))
    assert(tree.nodes.size == 2)
  }

  test("vpOnly mode never produces PT nodes") {
    val tree = translator.translate(parse(
      "SELECT * WHERE { ?s ex:mid ?a . ?s ex:small ?b . ?s ex:tiny ?c }"), vpOnly = true)
    assert(tree.nodes.size == 3)
    assert(tree.nodes.forall(_.isInstanceOf[VpJtNode]))
  }

  test("a star query becomes a single PT node, saving all joins") {
    val tree = translator.translate(parse(
      "SELECT * WHERE { ?s ex:big ?a . ?s ex:mid ?b . ?s ex:small ?c }"))
    assert(tree.nodes.size == 1)
    assert(tree.root.isInstanceOf[PtJtNode])
  }

  test("the heaviest node becomes the root") {
    val tree = translator.translate(parse(
      "SELECT * WHERE { ?a ex:big ?b . ?b ex:small ?c }"))
    assert(tree.root.asInstanceOf[VpJtNode].pattern.p.value == "ex:big")
  }

  test("a literal pattern is pushed to a leaf (computed first)") {
    val tree = translator.translate(parse(
      """SELECT * WHERE { ?a ex:mid ?b . ?b ex:mid "x" . ?b ex:big ?c }"""), vpOnly = true)
    def hasLiteral(tp: TriplePattern) = tp.o.isInstanceOf[Lit]
    val rootPred = tree.root.asInstanceOf[VpJtNode].pattern
    assert(!hasLiteral(rootPred), s"literal pattern must not be the root:\n${tree.pretty}")
    // The literal-bearing node is a leaf.
    val literalNode = tree.nodes.find(_.patterns.exists(hasLiteral)).get
    assert(literalNode.children.isEmpty)
  }

  test("literal weighting: literal beats IRI constant beats variable") {
    val varW = weight(TriplePattern(Var("a"), Iri("ex:mid"), Var("b")))
    val iriW = weight(TriplePattern(Var("a"), Iri("ex:mid"), Iri("ex:x")))
    val litW = weight(TriplePattern(Var("a"), Iri("ex:mid"), Lit("x")))
    assert(litW < iriW && iriW < varW)
  }

  test("constant subject reduces the weight to a point lookup") {
    val free = weight(TriplePattern(Var("a"), Iri("ex:big"), Var("b")))
    val bound = weight(TriplePattern(Iri("ex:s1"), Iri("ex:big"), Var("b")))
    assert(bound < free / 100)
  }

  test("unknown predicate weighs zero (empty result: most selective)") {
    assert(weight(TriplePattern(Var("a"), Iri("ex:none"), Var("b"))) == 0.0)
  }

  test("PT node weight is bounded by its rarest member's subjects") {
    val node = PtJtNode(Seq(
      TriplePattern(Var("s"), Iri("ex:big"), Var("a")),
      TriplePattern(Var("s"), Iri("ex:tiny"), Var("b")),
    ))
    assert(translator.nodeWeight(node) <= 10.0)
  }

  test("PT node with a literal is weighted heavily toward the leaves") {
    val plain = PtJtNode(Seq(
      TriplePattern(Var("s"), Iri("ex:mid"), Var("a")),
      TriplePattern(Var("s"), Iri("ex:small"), Var("b")),
    ))
    val withLit = PtJtNode(Seq(
      TriplePattern(Var("s"), Iri("ex:mid"), Var("a")),
      TriplePattern(Var("s"), Iri("ex:small"), Lit("x")),
    ))
    assert(translator.nodeWeight(withLit) < translator.nodeWeight(plain))
  }

  test("exact weight: a VP node with a variable object weighs its triple count") {
    assert(weight(TriplePattern(Var("a"), Iri("ex:mid"), Var("b"))) == 5000.0)
  }

  test("exact weight: an IRI object scales a VP node by 1/20, a literal by 1/100") {
    assert(weight(TriplePattern(Var("a"), Iri("ex:mid"), Iri("ex:x"))) == 250.0)
    assert(weight(TriplePattern(Var("a"), Iri("ex:mid"), Lit("x"))) == 50.0)
  }

  test("exact weight: a constant subject divides a VP node by the distinct subjects") {
    assert(weight(TriplePattern(Iri("ex:s1"), Iri("ex:big"), Var("b"))) == 5.0)
  }

  test("exact weight: an unknown predicate weighs 0 alone and in a PT group") {
    assert(weight(TriplePattern(Iri("ex:s1"), Iri("ex:none"), Lit("x"))) == 0.0)
    assert(translator.nodeWeight(PtJtNode(Seq(
      TriplePattern(Var("s"), Iri("ex:none"), Var("a")),
      TriplePattern(Var("s"), Iri("ex:big"), Var("b")),
    ))) == 0.0)
  }

  test("exact weight: a PT group weighs its rarest member's distinct subjects") {
    assert(translator.nodeWeight(PtJtNode(Seq(
      TriplePattern(Var("s"), Iri("ex:big"), Var("a")),
      TriplePattern(Var("s"), Iri("ex:tiny"), Var("b")),
    ))) == 10.0)
  }

  test("exact weight: a literal object scales a PT group by 1/100") {
    assert(translator.nodeWeight(PtJtNode(Seq(
      TriplePattern(Var("s"), Iri("ex:mid"), Var("a")),
      TriplePattern(Var("s"), Iri("ex:small"), Lit("x")),
    ))) == 1.0)
  }

  test("exact weight: a PT group with a constant subject is one row") {
    assert(translator.nodeWeight(PtJtNode(Seq(
      TriplePattern(Iri("ex:s1"), Iri("ex:big"), Var("a")),
      TriplePattern(Iri("ex:s1"), Iri("ex:tiny"), Iri("ex:x")),
    ))) == 0.05)
  }

  test("every pattern of the query appears in exactly one node") {
    val q = parse("SELECT * WHERE { ?s ex:mid ?a . ?s ex:small ?b . ?a ex:big ?c . ?c ex:tiny ?d }")
    val tree = translator.translate(q)
    val covered = tree.nodes.flatMap(_.patterns)
    assert(covered.sortBy(_.toString) == q.patterns.sortBy(_.toString))
  }

  test("connected nodes are attached via shared variables where possible") {
    val tree = translator.translate(parse(
      "SELECT * WHERE { ?a ex:big ?b . ?b ex:mid ?c . ?c ex:small ?d }"))
    def edgesShareVar(n: JtNode): Boolean = n.children.forall { c =>
      n.ownVariables.intersect(c.subtreeVariables).nonEmpty && edgesShareVar(c)
    }
    assert(edgesShareVar(tree.root), tree.pretty)
  }

  test("projection and distinct are carried into the tree") {
    val tree = translator.translate(parse(
      "SELECT DISTINCT ?a WHERE { ?a ex:mid ?b }"))
    assert(tree.projection == Seq(Var("a")))
    assert(tree.distinct)
  }

  test("pretty printing names node kinds") {
    val tree = translator.translate(parse(
      "SELECT * WHERE { ?s ex:mid ?a . ?s ex:small ?b . ?a ex:big ?c }"))
    assert(tree.pretty.contains("PT["))
    assert(tree.pretty.contains("VP["))
  }
}
