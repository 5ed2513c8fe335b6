package repro.core

import repro.sparql.{BgpQuery, Iri, Lit, TriplePattern, Var}

/** SPARQL → Join Tree translation with the paper's statistics-based
  * priorities (Sections 3.2–3.3).
  *
  * Grouping rule: triple patterns sharing the same subject become one
  * Property Table node; every remaining single pattern becomes a Vertical
  * Partitioning node. (In `vpOnly` mode — the paper's Figure 2 baseline —
  * every pattern is a group of its own, so every node is a VP node.)
  *
  * Priority rule: a node's weight estimates its result rows; low weight =
  * high priority = computed early/deep, and the heaviest node becomes the
  * root. The weight is `rows × Π factor` over the node's patterns, where a
  * literal object's factor is 1/100, an IRI object's 1/20 and a variable's
  * 1. `rows` is the predicate's triple count for a one-pattern node and the
  * rarest predicate's distinct subjects for a PT group; a constant subject
  * is a point lookup that divides `rows` by that smallest subject count.
  * An unknown predicate has no triples, so its node weighs 0.
  */
final class Translator(stats: GraphStats) {

  private val LiteralFactor = 0.01
  private val IriConstFactor = 0.05

  /** Estimated result-size weight of a node. Multi-valued members of a PT
    * group can only multiply rows; the bound stays simple, as the paper's
    * "simple but effective" statistics do.
    */
  private[core] def nodeWeight(node: JtNode): Double = {
    val predicates = node.patterns.map(tp => stats(tp.p.value))
    val subjects = predicates.map(_.distinctSubjects).min
    val factor = node.patterns.map(_.o match {
      case _: Lit => LiteralFactor
      case _: Iri => IriConstFactor
      case _: Var => 1.0
    }).product
    val tuples = if (predicates.size == 1) predicates.head.tripleCount else subjects
    val rows =
      if (node.patterns.head.s.isVariable) tuples.toDouble
      else tuples.toDouble / math.max(1L, subjects) // point lookup on s
    rows * factor // one multiplication after the factors: TranslatorSpec pins the exact values
  }

  /** Group the BGP into PT/VP nodes (no tree shape yet): same-subject
    * groups in order of their subject's first appearance, or one group per
    * pattern in `vpOnly` mode. A one-pattern group is a VP node.
    */
  private[core] def groupNodes(query: BgpQuery, vpOnly: Boolean): Seq[JtNode] = {
    val groups =
      if (vpOnly) query.patterns.map(Seq(_))
      else query.patterns.groupBy(_.s).values.toSeq.sortBy(ps => query.patterns.indexOf(ps.head))
    groups.map {
      case Seq(tp) => VpJtNode(tp)
      case shared  => PtJtNode(shared)
    }
  }

  /** Build the Join Tree. Nodes are placed in [[EvalCore.connectedOrder]]
    * by descending weight: the heaviest node becomes the root (computed
    * last), and each later node is the heaviest one left that shares a
    * variable with the nodes already placed. Each node attaches to the
    * first placed node it shares a variable with, so the [[Executor]]
    * joins every child into its parent on a shared variable and the tree
    * is the join order that runs. Only a disconnected BGP gives a node
    * with no such parent; it hangs under the root as a cross join.
    */
  def translate(query: BgpQuery, vpOnly: Boolean = false): JoinTree = {
    val ordered = EvalCore.connectedOrder(groupNodes(query, vpOnly))(_.ownVariables, -nodeWeight(_))
    val parent = ordered.indices.map { i =>
      (0 until i).find(j => ordered(j).ownVariables.exists(ordered(i).ownVariables)).getOrElse(0)
    }
    def rebuild(i: Int): JtNode =
      ordered(i).withChildren((i + 1 until ordered.size).filter(parent(_) == i).map(rebuild))

    JoinTree(rebuild(0), query.effectiveProjection, query.distinct)
  }
}
