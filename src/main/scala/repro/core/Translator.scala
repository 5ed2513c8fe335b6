package repro.core

import repro.sparql.{BgpQuery, Iri, Lit, TriplePattern, Term, Var}

/** SPARQL → Join Tree translation with the paper's statistics-based
  * priorities (Sections 3.2–3.3).
  *
  * Grouping rule: triple patterns sharing the same subject become one
  * Property Table node; every remaining single pattern becomes a Vertical
  * Partitioning node. (In `vpOnly` mode — the paper's Figure 2 baseline —
  * grouping is disabled and every pattern is a VP node.)
  *
  * Priority rule (the paper's three criteria, expressed as an estimated
  * result-size *weight*; low weight = high priority = computed early/deep):
  *   1. a literal in a pattern is a strong constraint → weight × 1/100;
  *      an IRI constant in object position → weight × 1/20;
  *      a constant subject → a point lookup, weight ≈ tuples/subjects;
  *   2. a pattern over a large predicate weighs its triple count, adjusted
  *      by the predicate's distinct-subject count; the heaviest node
  *      becomes the root (computed last);
  *   3. a PT node is scored over all its patterns — bounded by its most
  *      selective member, with literals weighted heavily.
  */
final class Translator(stats: GraphStats) {

  private val LiteralFactor = 0.01
  private val IriConstFactor = 0.05

  /** Estimated result-size weight of a single pattern. */
  private[core] def patternWeight(tp: TriplePattern): Double = {
    val st = stats(tp.p.value)
    // Unknown predicate: empty result; most selective possible.
    if (st.tripleCount == 0L) return 0.0
    var w = st.tripleCount.toDouble
    tp.s match {
      case _: Var => ()
      case _      => w = w / math.max(1L, st.distinctSubjects) // point lookup on s
    }
    tp.o match {
      case _: Var => ()
      case _: Lit => w *= LiteralFactor
      case _: Iri => w *= IriConstFactor
    }
    w
  }

  /** Estimated weight of a whole node (criterion 3 for PT nodes). */
  private[core] def nodeWeight(node: JtNode): Double = node match {
    case VpJtNode(tp, _) => patternWeight(tp)
    case PtJtNode(subject, patterns, _) =>
      // The group is a conjunction on one subject: bounded by the distinct
      // subjects of its rarest predicate, further reduced by constants.
      val subjectBound = patterns.map(tp => stats(tp.p.value).distinctSubjects.toDouble).min
      val constFactor = patterns.map { tp =>
        tp.o match {
          case _: Lit => LiteralFactor
          case _: Iri => IriConstFactor
          case _: Var => 1.0
        }
      }.product
      val subjFactor = subject match {
        case _: Var => 1.0
        case _      => 1.0 / math.max(1.0, subjectBound) // constant subject: one row
      }
      // Multi-valued members can only multiply rows; keep the bound simple,
      // as the paper's "simple but effective" statistics do.
      subjectBound * constFactor * subjFactor
  }

  /** Group the BGP into PT/VP nodes (no tree shape yet). */
  private[core] def groupNodes(query: BgpQuery, vpOnly: Boolean): Seq[JtNode] =
    if (vpOnly) query.patterns.map(VpJtNode(_))
    else {
      val bySubject: Seq[(Term, Seq[TriplePattern])] =
        query.patterns.groupBy(_.s).toSeq
          // stable order: first appearance of the subject in the query
          .sortBy { case (_, ps) => query.patterns.indexOf(ps.head) }
      bySubject.map {
        case (_, Seq(single))  => VpJtNode(single)
        case (subject, shared) => PtJtNode(subject, shared)
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
