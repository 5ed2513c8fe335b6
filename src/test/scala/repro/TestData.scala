package repro

import java.nio.file.{Files, Path}

import org.apache.spark.sql.DataFrame

import repro.baselines.{RyaLike, S2RdfLike, SparqlGxLike}
import repro.core.{GraphStats, Prost, ProstDb}
import repro.sparql.{BgpQuery, BgpSql}
import repro.util.Timing
import repro.watdiv.WatDivGen

/** Shared fixtures for the whole test run: one small WatDiv-like graph and
  * one store of every engine, written and opened by the engine's `writeTo`
  * — the path the benchmarks run. Everything is lazy and built once per
  * JVM, so the expensive parts (generation, PT aggregation, the
  * per-predicate ExtVP write) run once.
  */
object TestData {

  /** ~6k triples; large enough that every benchmark query is non-trivial,
    * small enough for the DuckDB oracle to ingest per assertion.
    */
  val Scale = 0.05

  /** The directory every test writes under, deleted when the JVM exits. */
  lazy val root: Path = {
    val r = Files.createTempDirectory("repro-test")
    sys.addShutdownHook(Timing.deleteTree(r))
    r
  }

  /** A new empty directory under [[root]]. */
  def freshDir(prefix: String): String = Files.createTempDirectory(root, prefix).toString

  /** A new directory, and the store `writeTo` wrote of `graph` there and opened. */
  def written[A](graph: DataFrame, prefix: String)(writeTo: (DataFrame, String) => A): (String, A) = {
    val dir = freshDir(prefix)
    (dir, writeTo(graph, dir))
  }

  /** `graph` written by PRoST's `writeTo`, as the store it opened. */
  def prostStore(graph: DataFrame): ProstDb = written(graph, "prost")(Prost.writeTo)._2

  /** The five configurations every oracle check runs on — PRoST mixed and
    * VP-only, SPARQLGX, S2RDF and Rya — each answering from the store its
    * `writeTo` wrote of `graph` and opened. A store is written the first
    * time its configuration runs a query.
    */
  def configurations(graph: => DataFrame): Seq[(String, BgpQuery => DataFrame)] = {
    lazy val prost = prostStore(graph)
    lazy val gx = written(graph, "gx")(SparqlGxLike.writeTo)._2
    lazy val s2rdf = written(graph, "s2rdf")(S2RdfLike.writeTo)._2
    lazy val rya = written(graph, "rya")(RyaLike.writeTo)._2
    Seq(
      "PRoST, mixed" -> (prost.query(_, vpOnly = false)),
      "PRoST, VP-only" -> (prost.query(_, vpOnly = true)),
      "SPARQLGX" -> (gx.query(_)),
      "S2RDF" -> (s2rdf.query(_)),
      "Rya" -> (rya.query(_)),
    )
  }

  lazy val triples: DataFrame = {
    val df = WatDivGen.generate(SparkSpec.shared, Scale).cache()
    df.count() // force materialisation once
    df
  }

  lazy val stats: GraphStats = GraphStats.compute(triples)

  /** Each engine's store of [[triples]], and its directory for specs that look at it. */
  lazy val (prostDir, prost) = written(triples, "prost")(Prost.writeTo)
  lazy val (sparqlGxDir, sparqlGx) = written(triples, "gx")(SparqlGxLike.writeTo)
  lazy val (s2rdfDir, s2rdf) = written(triples, "s2rdf")(S2RdfLike.writeTo)
  lazy val (ryaDir, rya) = written(triples, "rya")(RyaLike.writeTo)

  /** Assert `result` matches DuckDB's answer for `query` over the shared
    * graph — the central correctness check of the reproduction.
    */
  def oracleCheck(result: DataFrame, query: BgpQuery): Unit =
    Oracle.assertEquivalent(result, BgpSql.toSql(query), "triples" -> triples)
}
