package repro.sparql

/** Compiles a [[BgpQuery]] to a SQL self-join over a single
  * `triples(s, p, o)` table (all VARCHAR). This is the *oracle side*: the
  * generated SQL runs on DuckDB via `repro.Oracle.assertEquivalent`, giving
  * an independent semantics for every engine in the reproduction.
  *
  * SPARQL BGP bag semantics map exactly onto SQL inner self-joins: one
  * result row per solution mapping, duplicates preserved. The triples are
  * taken as given: no load path drops a duplicated triple, so a pattern
  * matching one answers once per copy here and in every engine.
  */
object BgpSql {

  private def q(s: String): String = "'" + s.replace("'", "''") + "'"

  /** SQL for `query` against the `triples` table. Output columns are
    * aliased to the bare variable names, so a Spark result whose columns
    * are variable names compares directly.
    */
  def toSql(query: BgpQuery): String = {
    val aliases = query.patterns.indices.map(i => s"t$i")
    // First occurrence of each variable: (alias, column)
    var varSite = Map.empty[Var, String]
    val conditions = Vector.newBuilder[String]

    query.patterns.zipWithIndex.foreach { case (tp, i) =>
      val a = aliases(i)
      conditions += s"$a.p = ${q(tp.p.value)}"
      def site(term: Term, col: String): Unit = term match {
        case v: Var =>
          varSite.get(v) match {
            case Some(prev) => conditions += s"$a.$col = $prev"
            case None       => varSite += v -> s"$a.$col"
          }
        case c: Const => conditions += s"$a.$col = ${q(c.value)}"
      }
      site(tp.s, "s")
      site(tp.o, "o")
    }

    val select = query.effectiveProjection
      .map(v => s"${varSite(v)} AS ${v.name}")
      .mkString(", ")
    val dist = if (query.distinct) "DISTINCT " else ""
    val from = aliases.map(a => s"triples $a").mkString(", ")
    val where = conditions.result().mkString(" AND ")
    s"SELECT $dist$select FROM $from WHERE $where"
  }
}
