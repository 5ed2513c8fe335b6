package repro.rdf

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

import repro.core.Tsv

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

  /** `write(triples)`, with `triples` cached while it runs unless the
    * caller has cached it already. Only a cache made here is dropped, also
    * when `write` fails, so a caller's cached graph stays cached.
    */
  def withCached[A](triples: DataFrame)(write: DataFrame => A): A = {
    val owned = triples.storageLevel == StorageLevel.NONE
    if (owned) triples.cache()
    try write(triples) finally if (owned) triples.unpersist()
  }

  /** Write triples as tab-separated text (`s \t p \t o` per line, each term
    * [[Tsv.encode]]d) — the "source file" the loading benchmarks start
    * from, standing in for the N-Triples input of the paper.
    */
  def writeText(df: DataFrame, path: String): Unit =
    df.select(concat_ws("\t", Seq("s", "p", "o").map(c => Tsv.encode(col(c))): _*) as "value")
      .write.mode("overwrite").text(path)

  /** Read triples written by [[writeText]]. A line that does not split
    * into exactly three fields (shown escaped), or that holds a field
    * [[Tsv.decode]] rejects (shown as written), fails the read with an
    * error naming its file.
    */
  def readText(spark: SparkSession, path: String): DataFrame = {
    val fields = split(col("value"), "\t")
    val why = when(size(fields) =!= 3, concat(lit("expected 3 tab-separated fields, found "),
        size(fields).cast("string"), lit(": \""), Tsv.encode(col("value")), lit("\"")))
      .otherwise(coalesce((0 until 3).map(i => Tsv.rejection(fields(i))): _*))
    val malformed = concat(lit("malformed line in "), col("_metadata.file_path"), lit(": "), why)
    spark.read.text(path)
      .select(when(why.isNull, fields).otherwise(raise_error(malformed)) as "f")
      .select(Seq("s", "p", "o").zipWithIndex.map { case (c, i) => Tsv.decode(col("f")(i)) as c }: _*)
  }
}
