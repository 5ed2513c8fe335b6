package repro

/** The oracle compares bags of rows: row order never matters, and one
  * differing row always does.
  */
class OracleSpec extends SparkSpec {

  // Two rows whose fields, joined by \u0001, give the same string, so only
  // a sort on the fields themselves puts both sides in one order.
  private lazy val tied =
    spark.createDataFrame(Seq(("a", "b\u0001c"), ("a\u0001b", "c"))).toDF("x", "y")

  test("equal bags pass whatever order each side returns") {
    Oracle.assertEquivalent(tied, "SELECT x, y FROM t ORDER BY x DESC", "t" -> tied)
  }

  test("a bag differing in one row fails") {
    val sql = "SELECT x, CASE WHEN x = 'a' THEN 'd' ELSE y END AS y FROM t ORDER BY x DESC"
    val e = intercept[IllegalArgumentException](Oracle.assertEquivalent(tied, sql, "t" -> tied))
    assert(e.getMessage.contains("result mismatch"), e.getMessage)
  }
}
