package repro.core

import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ArrayType, StringType}

import repro.SparkSpec
import repro.rdf.TripleOps

class PropertyTableSpec extends SparkSpec {

  // ex:a has both values of a multi-valued predicate and a scalar;
  // ex:b misses ex:m entirely; ex:c has only the multi-valued one.
  private lazy val graph = TripleOps.fromSeq(spark, Seq(
    ("ex:a", "ex:m", "m1"),
    ("ex:a", "ex:m", "m2"),
    ("ex:a", "ex:single", "s1"),
    ("ex:b", "ex:single", "s2"),
    ("ex:c", "ex:m", "m3"),
  ))
  private lazy val stats = GraphStats.compute(graph)
  private lazy val pt = PropertyTable.build(graph, stats)
  private lazy val m = pt.column("ex:m").get
  private lazy val single = pt.column("ex:single").get

  test("one row per distinct subject") {
    assert(pt.df.count() == 3)
  }

  test("one column per predicate plus the subject column") {
    assert(pt.df.columns.toSet == Set("s", m, single))
  }

  test("multi-valued predicate becomes an array column") {
    assert(pt.isList("ex:m") && !pt.isList("ex:single"))
    assert(pt.df.schema(m).dataType == ArrayType(StringType, containsNull = false) ||
           pt.df.schema(m).dataType.isInstanceOf[ArrayType])
  }

  test("single-valued predicate becomes a scalar string column") {
    assert(pt.df.schema(single).dataType == StringType)
  }

  test("array column collects every value of the subject") {
    val values = pt.df.where(col("s") === "ex:a")
      .select(array_sort(col(m))).collect().head.getSeq[String](0)
    assert(values == Seq("m1", "m2"))
  }

  test("missing predicate yields NULL in the scalar column") {
    assert(pt.df.where(col("s") === "ex:c").select(single).collect().head.isNullAt(0))
  }

  test("missing predicate yields an empty array in the list column") {
    val arr = pt.df.where(col("s") === "ex:b").select(m).collect().head
    assert(arr.isNullAt(0) || arr.getSeq[String](0).isEmpty)
  }

  test("column names every predicate, and none for an unknown one") {
    assert(m == "p0" && single == "p1")
    assert(pt.column("ex:unknown").isEmpty && !pt.isList("ex:unknown"))
  }

  test("parquet write/load round trip preserves shape and content") {
    val dir = repro.TestData.freshDir("pt")
    PropertyTable.write(pt, s"$dir/pt")
    val loaded = PropertyTable.load(spark, s"$dir/pt", stats)
    assert(loaded.df.count() == 3)
    assert(Seq("ex:m", "ex:single").forall(p =>
      loaded.column(p) == pt.column(p) && loaded.isList(p) == pt.isList(p)))
    assert(loaded.df.columns.toSet == pt.df.columns.toSet)
    val values = loaded.df.where(col("s") === "ex:a")
      .select(array_sort(col(m))).collect().head.getSeq[String](0)
    assert(values == Seq("m1", "m2"))
  }

  test("WatDiv PT: one row per distinct subject of the big graph") {
    val bigPt = repro.TestData.prost.pt
    val distinctSubjects = repro.TestData.triples.select("s").distinct().count()
    assert(bigPt.df.count() == distinctSubjects)
  }

  test("WatDiv PT: NULL-heavy layout (most cells empty), as the paper describes") {
    val bigPt = repro.TestData.prost.pt
    val preds = repro.TestData.stats.predicates
    val nullCounts = preds.map { p =>
      val c = bigPt.column(p).get
      if (bigPt.isList(p))
        bigPt.df.where(size(col(c)) === 0).count()
      else bigPt.df.where(col(c).isNull).count()
    }
    val rows = bigPt.df.count()
    val totalCells = rows * preds.size
    val nullCells = nullCounts.sum
    assert(nullCells.toDouble / totalCells > 0.5,
      s"PT should be NULL-heavy: $nullCells of $totalCells empty")
  }

  test("WatDiv PT: follows is stored as a list, userId as a scalar") {
    val bigPt = repro.TestData.prost.pt
    assert(bigPt.isList("wsdbm:follows"))
    assert(!bigPt.isList("wsdbm:userId"))
  }
}
