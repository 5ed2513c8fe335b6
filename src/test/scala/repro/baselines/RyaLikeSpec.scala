package repro.baselines

import java.nio.file.{Files, Path, Paths}

import scala.jdk.StreamConverters._

import repro.{SparkSpec, TestData}
import repro.sparql.{Iri, Lit, SparqlParser, TriplePattern, Var}
import repro.watdiv.WatDivQueries

class RyaLikeSpec extends SparkSpec {

  /** The shared written store (three sorted copies). */
  private lazy val dir: String = TestData.ryaDir

  for (nq <- WatDivQueries.All) {
    test(s"${nq.name}: Rya-like matches the oracle") {
      TestData.oracleCheck(TestData.rya.query(nq.query), nq.query)
    }
  }

  test("index selection: bound subject reads SPO") {
    assert(TestData.rya.indexFor(
      TriplePattern(Iri("wsdbm:User1"), Iri("wsdbm:likes"), Var("o"))) == "spo")
  }

  test("index selection: bound object reads OSP") {
    assert(TestData.rya.indexFor(
      TriplePattern(Var("s"), Iri("foaf:age"), Lit("25"))) == "osp")
  }

  test("index selection: predicate-only pattern reads POS") {
    assert(TestData.rya.indexFor(
      TriplePattern(Var("s"), Iri("wsdbm:likes"), Var("o"))) == "pos")
  }

  test("join ordering puts constant-bearing patterns first") {
    val q = WatDivQueries.F3.query
    val ordered = TestData.rya.orderPatterns(q.patterns)
    assert(!ordered.head.s.isVariable || !ordered.head.o.isVariable)
  }

  test("join ordering keeps connectivity when possible") {
    val ordered = TestData.rya.orderPatterns(WatDivQueries.C2.query.patterns)
    var bound = ordered.head.variables.toSet
    ordered.tail.foreach { tp =>
      assert(tp.variables.exists(bound.contains), s"disconnected join at $tp")
      bound ++= tp.variables
    }
  }

  test("parquet write/load round trip answers queries correctly") {
    val loaded = RyaLike.loadFrom(spark, dir)
    TestData.oracleCheck(loaded.query(WatDivQueries.S7.query), WatDivQueries.S7.query)
  }

  test("a collected three-pattern query leaves only its last step in the scratch directory") {
    val rya = RyaLike.loadFrom(spark, dir)
    val q = WatDivQueries.L1.query
    TestData.oracleCheck(rya.query(q), q)
    def list(d: Path): Seq[String] = Files.list(d).toScala(Seq).map(_.getFileName.toString)
    val queryDirs = list(Paths.get(rya.scratchDir))
    assert(queryDirs.size == 1, queryDirs)
    assert(list(Paths.get(rya.scratchDir, queryDirs.head)) == Seq("step_1"))
  }

  test("the written store has all three index layouts") {
    for (idx <- Seq("spo", "pos", "osp"))
      assert(Files.exists(java.nio.file.Paths.get(s"$dir/$idx")), idx)
  }

  test("three index copies triple the footprint of one (Table 1 shape)") {
    val sizes = Seq("spo", "pos", "osp")
      .map(i => repro.util.Timing.dirBytes(java.nio.file.Paths.get(s"$dir/$i")))
    assert(sizes.forall(_ > 0))
    val total = sizes.sum
    assert(total > sizes.max * 2, "three copies expected")
  }
}
