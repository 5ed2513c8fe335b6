package prostbench

import java.sql.{DriverManager, ResultSet}

import scala.collection.mutable
import scala.util.hashing.MurmurHash3

import org.apache.spark.sql.Row

import repro.sparql.{BgpSql, SparqlParser}

/** Order-independent fingerprint of a bag of rows: the sorted column
  * names, the row count and two sums of 64-bit row hashes. Equal bags give
  * equal fingerprints; the values are compared column by column name, so
  * the column order of either side does not matter.
  */
final case class Bag(columns: Seq[String], rows: Long, sum1: Long, sum2: Long)

object Bag {

  private def hash64(s: String, seed: Int): Long =
    (MurmurHash3.stringHash(s, seed).toLong << 32) | (MurmurHash3.stringHash(s, seed + 1) & 0xffffffffL)

  /** Fingerprint `rows`; each row maps a column index to its value. */
  private def of(columns: Seq[String], rows: Iterator[Int => String]): Bag = {
    val order = columns.indices.sortBy(columns(_))
    val sb = new java.lang.StringBuilder
    var n, sum1, sum2 = 0L
    rows.foreach { value =>
      sb.setLength(0)
      order.foreach(c => sb.append(Option(value(c)).getOrElse("\u0000null")).append('\u0001'))
      val row = sb.toString
      n += 1
      sum1 += hash64(row, 0x5eed)
      sum2 += hash64(row, 0x0bad)
    }
    Bag(columns.sorted, n, sum1, sum2)
  }

  /** Fingerprint of rows collected from Spark. */
  def ofRows(columns: Seq[String], rows: Array[Row]): Bag =
    of(columns, rows.iterator.map(r => (c: Int) => Option(r.get(c)).map(_.toString).orNull))

  /** Fingerprint of a JDBC result, consumed to the end. */
  def ofResultSet(rs: ResultSet): Bag = {
    val meta = rs.getMetaData
    val columns = (1 to meta.getColumnCount).map(meta.getColumnLabel)
    of(columns, Iterator.continually(rs).takeWhile(_.next()).map { r =>
      val values = Array.tabulate(columns.size)(c => r.getString(c + 1))
      (c: Int) => values(c)
    })
  }
}

/** The correctness oracle of the benchmark: the tab-separated source
  * loaded once into an in-process DuckDB database, queried with the
  * repository's SPARQL-to-SQL compiler [[BgpSql]]. It never sees the
  * PRoST store, so it checks the program against an independent engine.
  */
final class OracleGate(sourceDir: String) extends AutoCloseable {

  Class.forName("org.duckdb.DuckDBDriver")
  private val conn = DriverManager.getConnection("jdbc:duckdb:")
  private val expected = mutable.Map.empty[String, Bag]

  locally {
    val glob = s"$sourceDir/*.txt".replace("'", "''")
    conn.createStatement().execute(
      "CREATE TABLE triples AS SELECT * FROM read_csv(" +
        s"'$glob', delim = '\t', header = false, quote = '', escape = '', " +
        "auto_detect = false, columns = {'s': 'VARCHAR', 'p': 'VARCHAR', 'o': 'VARCHAR'})")
  }

  /** Number of triples in the source. */
  val tripleCount: Long = {
    val rs = conn.createStatement().executeQuery("SELECT count(*) FROM triples")
    rs.next()
    rs.getLong(1)
  }

  /** The expected answer bag of a SPARQL query (computed once per text). */
  def bag(sparql: String): Bag =
    expected.getOrElseUpdate(sparql,
      Bag.ofResultSet(conn.createStatement().executeQuery(BgpSql.toSql(SparqlParser.parse(sparql)))))

  override def close(): Unit = conn.close()
}
