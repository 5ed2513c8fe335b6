package repro.rdf

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Helpers for the canonical triples DataFrame: three string columns
  * `s`, `p`, `o`. Every storage layout in the reproduction is derived from
  * this representation, and the DuckDB oracle consumes it directly.
  */
object TripleOps {

  /** Build a triples DataFrame from an in-memory sequence (tests). */
  def fromSeq(spark: SparkSession, triples: Seq[(String, String, String)]): DataFrame = {
    import spark.implicits._
    triples.toDF("s", "p", "o")
  }

  /** Enforce RDF set semantics and the canonical column order. */
  def canonical(df: DataFrame): DataFrame =
    df.select("s", "p", "o").distinct()

  /** Write triples as tab-separated text (`s \t p \t o` per line) — the
    * "source file" format the loading benchmarks start from, standing in
    * for the N-Triples input of the paper.
    */
  def writeText(df: DataFrame, path: String): Unit =
    df.select(concat_ws("\t", col("s"), col("p"), col("o")) as "value")
      .write.mode("overwrite").text(path)

  /** Read triples written by [[writeText]]. The object is everything after
    * the second tab, so a literal holding tabs is read back whole.
    */
  def readText(spark: SparkSession, path: String): DataFrame = {
    val parts = split(col("value"), "\t", 3)
    spark.read.text(path).select(
      parts.getItem(0) as "s",
      parts.getItem(1) as "p",
      parts.getItem(2) as "o",
    )
  }
}
