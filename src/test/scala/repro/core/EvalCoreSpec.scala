package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.sparql.Var

/** An item of the order: a name, the variables it binds, its key. */
private final case class Item(name: String, vars: Set[Var], key: Double)

class EvalCoreSpec extends AnyFunSuite {

  private def item(name: String, key: Double, vars: String*) = Item(name, vars.map(Var(_)).toSet, key)

  private def order(items: Item*): Seq[String] =
    EvalCore.connectedOrder(items)(_.vars, _.key).map(_.name)

  test("connectedOrder places every item exactly once") {
    val items = Seq(item("a", 3, "x", "y"), item("b", 1, "y", "z"), item("c", 2, "z"),
      item("d", 1, "x"), item("e", 5, "w", "x"))
    assert(order(items: _*).sorted == items.map(_.name).sorted)
  }

  test("connectedOrder starts with the lowest key and then follows shared variables") {
    // c has the second-lowest key but shares nothing with a until b is placed.
    val got = order(item("a", 1, "x", "y"), item("c", 2, "z", "w"), item("b", 3, "y", "z"))
    assert(got == Seq("a", "b", "c"))
  }

  test("connectedOrder keeps query order among equal keys") {
    assert(order(item("a", 1, "x"), item("b", 1, "x"), item("c", 1, "x")) == Seq("a", "b", "c"))
    assert(order(item("a", 2, "x"), item("b", 1, "x"), item("c", 1, "x")) == Seq("b", "c", "a"))
  }

  test("connectedOrder yields every item of a disconnected input, one component at a time") {
    val got = order(item("a", 1, "x"), item("p", 2, "u"), item("b", 3, "x"), item("q", 0.5, "u"))
    assert(got == Seq("q", "p", "a", "b"))
  }

  test("connectedOrder places items that bind no variable") {
    assert(order(item("g", 0, "x"), item("h", 1), item("a", 2, "x")) == Seq("g", "a", "h"))
  }
}
