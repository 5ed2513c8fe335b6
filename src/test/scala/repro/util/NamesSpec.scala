package repro.util

import org.scalatest.funsuite.AnyFunSuite

import repro.watdiv.WatDivSchema

class NamesSpec extends AnyFunSuite {

  test("colon is replaced") {
    assert(Names.sanitize("wsdbm:follows") == "wsdbm_follows")
  }

  test("slashes and dots are replaced") {
    assert(Names.sanitize("http://x.org/p") == "http___x_org_p")
  }

  test("leading digit gets a prefix") {
    assert(Names.sanitize("1abc").head != '1')
  }

  test("empty string gets a prefix") {
    assert(Names.sanitize("").nonEmpty)
  }

  test("forPredicates is injective on colliding names") {
    val m = Names.forPredicates(Seq("ex:p", "ex/p", "ex.p"))
    assert(m.values.toSet.size == 3)
  }

  test("forPredicates is stable across call order") {
    val a = Names.forPredicates(Seq("ex:p", "ex/p"))
    val b = Names.forPredicates(Seq("ex/p", "ex:p"))
    assert(a == b)
  }

  test("forPredicates keys cover the input") {
    val preds = Seq("rdf:type", "wsdbm:likes", "foaf:age")
    assert(Names.forPredicates(preds).keySet == preds.toSet)
  }

  test("already-clean names pass through") {
    assert(Names.forPredicates(Seq("clean_name"))("clean_name") == "clean_name")
  }

  private val tricky = Seq("s", "S", "ex:P", "ex:p", "__pt_0", "__props", "p_s")

  test("forPredicates never returns the subject column or a __ name") {
    for (name <- Names.forPredicates(tricky).values) {
      assert(!name.equalsIgnoreCase("s"), name)
      assert(!name.startsWith("__"), name)
    }
  }

  test("forPredicates stays injective after case folding") {
    val names = Names.forPredicates(tricky).values.toSeq
    assert(names.map(_.toLowerCase).distinct.size == tricky.size, names)
  }

  test("forPredicates maps reserved and case-variant predicates stably") {
    assert(Names.forPredicates(Seq("s", "S", "ex:P", "ex:p", "__pt_0")) == Map(
      "S" -> "p_S", "__pt_0" -> "p___pt_0", "ex:P" -> "ex_P", "ex:p" -> "ex_p_2", "s" -> "p_s_2"))
  }

  test("WatDiv predicates keep their plain sanitised names") {
    val m = Names.forPredicates(WatDivSchema.AllPredicates)
    for (p <- WatDivSchema.AllPredicates) assert(m(p) == p.replace(':', '_'), p)
  }
}
