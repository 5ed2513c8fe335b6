package repro.sparql

/** Minimal SPARQL algebra for the conjunctive-BGP fragment the paper
  * handles (Section 3.2: "queries with a unique basic graph pattern
  * without filter, which are a conjunction of triple patterns").
  *
  * Terms are plain strings: IRIs are kept in their prefixed form
  * (`wsdbm:User42`), literals carry their lexical form without quotes.
  */
sealed trait Term {
  /** True for variables, false for constants (IRIs and literals). */
  def isVariable: Boolean
}

/** A SPARQL variable, name without the leading `?`. */
final case class Var(name: String) extends Term {
  require(name.nonEmpty, "variable name must be non-empty")
  override def isVariable: Boolean = true
  override def toString: String = s"?$name"
}

/** An IRI or a literal: every store holds a constant as its `value`. */
sealed trait Const extends Term {
  def value: String
  override def isVariable: Boolean = false
}

/** An IRI constant in prefixed form, e.g. `wsdbm:User42`. */
final case class Iri(value: String) extends Const {
  override def toString: String = value
}

/** A literal constant; `value` is the lexical form without quotes. */
final case class Lit(value: String) extends Const {
  override def toString: String = "\"" + value + "\""
}

/** One triple pattern of a basic graph pattern. The predicate is always a
  * constant IRI in our fragment (variable predicates defeat both VP and PT
  * and are unsupported by the paper's data model).
  */
final case class TriplePattern(s: Term, p: Iri, o: Term) {
  /** The variables this pattern binds, in s,o order. */
  def variables: Seq[Var] =
    Seq(s, o).collect { case v: Var => v }.distinct

  override def toString: String = s"$s $p $o ."
}

/** A parsed `SELECT [DISTINCT] ?v… WHERE { tp . tp … }` query.
  *
  * @param projection the projected variables, in syntax order; empty means
  *                   `SELECT *` (project every variable of the BGP)
  * @param patterns   the conjunctive basic graph pattern
  * @param distinct   whether `DISTINCT` was given
  */
final case class BgpQuery(
    projection: Seq[Var],
    patterns: Seq[TriplePattern],
    distinct: Boolean = false,
) {
  require(patterns.nonEmpty, "a BGP needs at least one triple pattern")

  /** All variables mentioned anywhere in the BGP, in first-seen order. */
  def allVariables: Seq[Var] =
    patterns.flatMap(tp => Seq(tp.s, tp.o)).collect { case v: Var => v }.distinct

  /** The effective projection: explicit list, or every variable for `*`. */
  def effectiveProjection: Seq[Var] =
    if (projection.nonEmpty) projection else allVariables

  override def toString: String = {
    val proj =
      if (projection.isEmpty) "*" else projection.map(_.toString).mkString(" ")
    val dist = if (distinct) "DISTINCT " else ""
    s"SELECT $dist$proj WHERE { ${patterns.map(_.toString).mkString(" ")} }"
  }
}
