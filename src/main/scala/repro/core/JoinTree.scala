package repro.core

import repro.sparql.{TriplePattern, Term, Var}

/** The paper's intermediate query representation (Section 3.2): a tree
  * whose nodes are sub-queries answered either from the Property Table
  * (several patterns sharing one subject) or from a Vertical Partitioning
  * table (a single pattern). Execution is bottom-up: children first, each
  * joined into its parent on the shared variables.
  */
sealed trait JtNode {
  /** The triple patterns this node answers. */
  def patterns: Seq[TriplePattern]

  /** Child nodes, joined into this node after it is computed. */
  def children: Seq[JtNode]

  /** Variables bound by this node alone (not its children). */
  def ownVariables: Set[Var] = patterns.flatMap(_.variables).toSet

  /** Variables bound by the whole subtree. */
  def subtreeVariables: Set[Var] =
    ownVariables ++ children.flatMap(_.subtreeVariables)

  /** Copy with different children (tree building). */
  def withChildren(cs: Seq[JtNode]): JtNode
}

/** A single triple pattern answered from its predicate's VP table. */
final case class VpJtNode(pattern: TriplePattern, children: Seq[JtNode] = Seq.empty)
    extends JtNode {
  override def patterns: Seq[TriplePattern] = Seq(pattern)
  override def withChildren(cs: Seq[JtNode]): JtNode = copy(children = cs)
}

/** A same-subject pattern group answered with a select on the Property
  * Table — the node type whose existence is the paper's contribution. The
  * subject is the one all its patterns share.
  */
final case class PtJtNode(patterns: Seq[TriplePattern], children: Seq[JtNode] = Seq.empty)
    extends JtNode {
  require(patterns.nonEmpty, "PT node needs at least one pattern")
  require(patterns.forall(_.s == subject), "PT node patterns must share the subject")
  def subject: Term = patterns.head.s
  override def withChildren(cs: Seq[JtNode]): JtNode = copy(children = cs)
}

/** A complete translated query: the tree plus projection/distinct. */
final case class JoinTree(root: JtNode, projection: Seq[Var], distinct: Boolean) {

  /** All nodes, pre-order. */
  def nodes: Seq[JtNode] = {
    def walk(n: JtNode): Seq[JtNode] = n +: n.children.flatMap(walk)
    walk(root)
  }

  /** Pretty-printed tree for debugging and translator tests. */
  def pretty: String = {
    def walk(n: JtNode, depth: Int): Seq[String] = {
      val label = n match {
        case pt: PtJtNode    => s"PT[${pt.subject}] (${pt.patterns.map(_.p.value).mkString(", ")})"
        case VpJtNode(tp, _) => s"VP[${tp.p.value}] $tp"
      }
      (("  " * depth) + label) +: n.children.flatMap(walk(_, depth + 1))
    }
    walk(root, 0).mkString("\n")
  }
}
