package repro

import java.nio.file.{Files, Path}

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baselines.{RyaLike, S2RdfLike, SparqlGxLike}
import repro.core.{GraphStats, Prost, ProstDb}
import repro.sparql.{BgpQuery, BgpSql}
import repro.util.Timing
import repro.watdiv.WatDivGen

/** Shared fixtures for the whole test run: one small WatDiv-like graph and
  * one store of every engine, written by the engine's `writeTo` and opened
  * by its `loadFrom` — the path the benchmarks run. Everything is lazy and
  * built once per JVM, so the expensive parts (generation, PT aggregation,
  * the per-predicate ExtVP write) run once.
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

  /** `graph` written by `writeTo` into a new directory; returns it. */
  def write(graph: DataFrame, prefix: String)(writeTo: (DataFrame, String) => Any): String = {
    val dir = freshDir(prefix)
    writeTo(graph, dir)
    dir
  }

  /** `graph` written by PRoST's `writeTo` and reopened by its `loadFrom`. */
  def prostStore(graph: DataFrame): ProstDb =
    Prost.loadFrom(graph.sparkSession, write(graph, "prost")(Prost.writeTo))

  /** The five configurations every oracle check runs on — PRoST mixed and
    * VP-only, SPARQLGX, S2RDF and Rya — each answering from its own
    * written and reopened store of `graph`. A store is written the first
    * time its configuration runs a query.
    */
  def configurations(graph: => DataFrame): Seq[(String, BgpQuery => DataFrame)] = {
    def opened[A](prefix: String)(writeTo: (DataFrame, String) => Unit, loadFrom: (SparkSession, String) => A): A =
      loadFrom(graph.sparkSession, write(graph, prefix)(writeTo))
    lazy val prost = prostStore(graph)
    lazy val gx = opened("gx")(SparqlGxLike.writeTo, SparqlGxLike.loadFrom)
    lazy val s2rdf = opened("s2rdf")(S2RdfLike.writeTo, S2RdfLike.loadFrom)
    lazy val rya = opened("rya")(RyaLike.writeTo, RyaLike.loadFrom)
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

  lazy val prostDir: String = write(triples, "prost")(Prost.writeTo)
  lazy val sparqlGxDir: String = write(triples, "gx")(SparqlGxLike.writeTo)
  lazy val s2rdfDir: String = write(triples, "s2rdf")(S2RdfLike.writeTo)
  lazy val ryaDir: String = write(triples, "rya")(RyaLike.writeTo)

  lazy val prost: ProstDb = Prost.loadFrom(SparkSpec.shared, prostDir)

  lazy val sparqlGx: SparqlGxLike = SparqlGxLike.loadFrom(SparkSpec.shared, sparqlGxDir)

  lazy val s2rdf: S2RdfLike = S2RdfLike.loadFrom(SparkSpec.shared, s2rdfDir)

  lazy val rya: RyaLike = RyaLike.loadFrom(SparkSpec.shared, ryaDir)

  /** Assert `result` matches DuckDB's answer for `query` over the shared
    * graph — the central correctness check of the reproduction.
    */
  def oracleCheck(result: DataFrame, query: BgpQuery): Unit =
    Oracle.assertEquivalent(result, BgpSql.toSql(query), "triples" -> triples)
}
