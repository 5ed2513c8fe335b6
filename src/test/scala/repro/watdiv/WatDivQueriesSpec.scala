package repro.watdiv

import org.scalatest.funsuite.AnyFunSuite

import repro.sparql.Var

class WatDivQueriesSpec extends AnyFunSuite {
  import WatDivQueries._

  test("the basic set has twenty queries") {
    assert(All.size == 20)
  }

  test("query names are unique") {
    assert(All.map(_.name).distinct.size == 20)
  }

  test("group sizes match the paper's query set") {
    val sizes = ByGroup.map { case (g, qs) => g -> qs.size }.toMap
    assert(sizes == Map("C" -> 3, "F" -> 5, "L" -> 5, "S" -> 7))
  }

  test("every query parses") {
    All.foreach(q => assert(q.query.patterns.nonEmpty, q.name))
  }

  test("every query's predicates exist in the schema catalogue") {
    All.foreach { q =>
      q.query.patterns.foreach { tp =>
        assert(WatDivSchema.AllPredicates.contains(tp.p.value),
          s"${q.name}: unknown predicate ${tp.p.value}")
      }
    }
  }

  test("star queries share a single subject variable") {
    ByGroup.toMap.apply("S").foreach { q =>
      val subjects = q.query.patterns.map(_.s).distinct
      // S1 intentionally includes one reverse pattern (Retailer -> Offer).
      assert(subjects.count(_.isVariable) == 1, s"${q.name}: $subjects")
    }
  }

  test("linear queries have at most three patterns") {
    ByGroup.toMap.apply("L").foreach(q => assert(q.query.patterns.size <= 3, q.name))
  }

  test("complex queries have at least six patterns") {
    ByGroup.toMap.apply("C").foreach(q => assert(q.query.patterns.size >= 6, q.name))
  }

  test("snowflake queries touch at least two subject variables") {
    ByGroup.toMap.apply("F").foreach { q =>
      val varSubjects = q.query.patterns.map(_.s).filter(_.isVariable).distinct
      assert(varSubjects.size >= 1, q.name)
      val allSubjects = q.query.patterns.map(_.s).distinct
      assert(allSubjects.size >= 2, s"${q.name} should branch: $allSubjects")
    }
  }

  test("most queries carry a constant (WatDiv places one in nearly all)") {
    val withConst = All.count(_.query.patterns.exists(tp => !tp.s.isVariable || !tp.o.isVariable))
    assert(withConst >= 15)
  }

  test("group names match the paper's Table 2 rows") {
    assert(GroupNames == Map("C" -> "Complex", "F" -> "Snowflake",
                             "L" -> "Linear", "S" -> "Star"))
  }

  test("projections are SELECT * (all variables)") {
    All.foreach { q =>
      assert(q.query.projection.isEmpty, q.name)
      assert(q.query.effectiveProjection.nonEmpty, q.name)
    }
  }

  test("no query repeats an identical pattern") {
    All.foreach { q =>
      assert(q.query.patterns.distinct.size == q.query.patterns.size, q.name)
    }
  }
}
