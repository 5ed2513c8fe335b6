package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.{Oracle, SparkSpec, TestData}
import repro.rdf.TripleOps
import repro.sparql.{BgpQuery, BgpSql, Iri, Lit, TriplePattern, Var}

/** Property-based check: random conjunctive BGPs over a fixed small graph
  * agree with DuckDB under both PRoST strategies. Complements the
  * handcrafted cases in ExecutorSpec by searching the query space.
  *
  * ScalaCheck generators are sampled with fixed seeds (the scalatest-plus
  * bridge is not on the classpath), so the cases are random-shaped but
  * fully reproducible.
  */
class RandomBgpSpec extends SparkSpec {

  private lazy val graph = TripleOps.fromSeq(spark, {
    // Small deterministic dense graph: 12 subjects, 4 predicates.
    val rnd = new scala.util.Random(7)
    val subjects = (0 until 12).map(i => s"n$i")
    val preds = Seq("g:p1", "g:p2", "g:p3", "g:p4")
    for {
      s <- subjects; p <- preds
      _ <- 0 until rnd.nextInt(3) // 0..2 edges per (s, p)
    } yield (s, p, if (rnd.nextBoolean()) subjects(rnd.nextInt(12)) else s"lit${rnd.nextInt(5)}")
  })

  private lazy val db = TestData.prostStore(graph)

  private val genVar: Gen[Var] = Gen.oneOf("a", "b", "c", "d").map(Var(_))
  private val genTerm: Gen[repro.sparql.Term] = Gen.frequency(
    6 -> genVar,
    1 -> Gen.choose(0, 11).map(i => Iri(s"n$i")),
    1 -> Gen.choose(0, 4).map(i => Lit(s"lit$i")),
  )
  private val genPattern: Gen[TriplePattern] = for {
    s <- genTerm
    p <- Gen.oneOf("g:p1", "g:p2", "g:p3", "g:p4")
    o <- genTerm
  } yield TriplePattern(s, Iri(p), o)

  /** Random BGPs with 1–4 patterns and at least one variable to project. */
  private val genQuery: Gen[BgpQuery] = (for {
    n <- Gen.choose(1, 4)
    pats <- Gen.listOfN(n, genPattern)
  } yield pats).retryUntil(_.exists(_.variables.nonEmpty), 100)
    .map(pats => BgpQuery(Seq.empty, pats))

  private def cases(count: Int): Seq[BgpQuery] =
    (1 to count).map(i => genQuery.pureApply(Gen.Parameters.default, Seed(i.toLong)))

  test("random BGPs: mixed strategy agrees with DuckDB") {
    cases(25).foreach { q =>
      withClue(q.toString) {
        Oracle.assertEquivalent(db.query(q, vpOnly = false), BgpSql.toSql(q), "triples" -> graph)
      }
    }
  }

  test("random BGPs: VP-only strategy agrees with DuckDB") {
    cases(25).foreach { q =>
      withClue(q.toString) {
        Oracle.assertEquivalent(db.query(q, vpOnly = true), BgpSql.toSql(q), "triples" -> graph)
      }
    }
  }

  test("random BGPs: mixed and VP-only strategies agree with each other") {
    cases(25).foreach { q =>
      val a = db.query(q, vpOnly = false).collect().map(_.toSeq.mkString("|")).sorted
      val b = db.query(q, vpOnly = true).collect().map(_.toSeq.mkString("|")).sorted
      assert(a.sameElements(b), q.toString)
    }
  }
}
