package repro.util

/** Predicate-IRI → identifier sanitisation shared by every storage layout.
  *
  * Predicates like `wsdbm:follows` must become legal Parquet column names
  * and filesystem path fragments. The mapping must be *injective per
  * predicate set*, which [[forPredicates]] guarantees by suffixing
  * collisions with a stable index. Spark resolves column names
  * case-insensitively, so names that differ only in letter case collide
  * too. No name may clash with the Property Table's own columns: the
  * subject column `s` and the `__`-prefixed working columns.
  */
object Names {

  /** Lossy single-name sanitisation: non `[A-Za-z0-9_]` → `_`; a name that
    * would start with a digit or be reserved gets a `p_` prefix.
    */
  def sanitize(predicate: String): String = {
    val cleaned = predicate.map(c => if (c.isLetterOrDigit || c == '_') c else '_')
    if (cleaned.isEmpty || cleaned.head.isDigit || reserved(cleaned)) "p_" + cleaned else cleaned
  }

  /** The subject column `s` in any letter case, and the `__` namespace. */
  private def reserved(name: String): Boolean =
    name.equalsIgnoreCase("s") || name.startsWith("__")

  /** Injective mapping predicate → column/path name for a whole predicate
    * set, also after case folding. Collisions get `_2`, `_3`, … suffixes in
    * the sorted order of the original predicates, so the mapping is stable
    * across runs for the same predicate set.
    */
  def forPredicates(predicates: Seq[String]): Map[String, String] = {
    // The per-character folding of `String.equalsIgnoreCase`, which is how
    // Spark's case-insensitive resolver compares names.
    def folded(name: String) = name.map(c => Character.toLowerCase(Character.toUpperCase(c)))
    val sorted = predicates.distinct.sorted
    val used = scala.collection.mutable.Set.empty[String]
    sorted.map { p =>
      val base = sanitize(p)
      var name = base
      var k = 2
      while (used.contains(folded(name))) { name = s"${base}_$k"; k += 1 }
      used += folded(name)
      p -> name
    }.toMap
  }
}
