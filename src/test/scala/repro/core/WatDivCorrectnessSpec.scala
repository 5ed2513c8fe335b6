package repro.core

import repro.{SparkSpec, TestData}
import repro.watdiv.WatDivQueries

/** The central end-to-end guarantee: every query of the WatDiv basic set,
  * executed by PRoST with the mixed strategy AND with VP only, matches
  * DuckDB's answer over the same graph.
  */
class WatDivCorrectnessSpec extends SparkSpec {

  for (nq <- WatDivQueries.All) {
    test(s"${nq.name} (${WatDivQueries.GroupNames(nq.group)}): mixed strategy matches the oracle") {
      TestData.oracleCheck(TestData.prost.query(nq.query, vpOnly = false), nq.query)
    }

    test(s"${nq.name} (${WatDivQueries.GroupNames(nq.group)}): VP-only strategy matches the oracle") {
      TestData.oracleCheck(TestData.prost.query(nq.query, vpOnly = true), nq.query)
    }
  }

  // Queries that must return rows at the test scale, so the suite can't
  // pass vacuously on an empty generator.
  for (name <- Seq("C1", "C3", "F1", "L1", "L2", "S2", "S5", "S7")) {
    test(s"$name returns a non-empty result at test scale") {
      val nq = WatDivQueries.All.find(_.name == name).get
      assert(TestData.prost.query(nq.query, vpOnly = false).count() > 0,
        s"${nq.name} is empty — generator/query mismatch")
    }
  }

  test("mixed strategy uses at least one PT node on every star query") {
    for (nq <- WatDivQueries.ByGroup.toMap.apply("S")) {
      val tree = TestData.prost.plan(nq.query, vpOnly = false)
      assert(tree.nodes.exists(_.isInstanceOf[PtJtNode]), s"${nq.name}:\n${tree.pretty}")
    }
  }

  test("star queries collapse to a single-node plan plus reverse edges") {
    val tree = TestData.prost.plan(WatDivQueries.S2.query)
    assert(tree.nodes.size == 1, tree.pretty)
  }

  test("linear queries translate to mostly VP nodes") {
    for (nq <- WatDivQueries.ByGroup.toMap.apply("L")) {
      val tree = TestData.prost.plan(nq.query)
      val vpCount = tree.nodes.count(_.isInstanceOf[VpJtNode])
      assert(vpCount >= tree.nodes.size - 1, s"${nq.name}:\n${tree.pretty}")
    }
  }

  // The Join Tree is the order that runs: when the Executor folds a child
  // into its parent, the parent's columns so far (its own variables plus
  // those of the children already folded in) share a variable with it.
  for (nq <- WatDivQueries.All) {
    test(s"${nq.name}: every Join-Tree child joins its parent on a shared variable") {
      val translator = new Translator(TestData.stats)
      for (vpOnly <- Seq(false, true)) {
        val tree = translator.translate(nq.query, vpOnly)
        for (parent <- tree.nodes) {
          var columns = parent.ownVariables
          for (child <- parent.children) {
            assert(columns.exists(child.subtreeVariables),
              s"vpOnly=$vpOnly: cross join of ${child.patterns.mkString(" ")}\n${tree.pretty}")
            columns ++= child.subtreeVariables
          }
        }
      }
    }
  }
}
