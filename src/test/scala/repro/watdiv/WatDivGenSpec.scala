package repro.watdiv

import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestData}
import WatDivSchema._

class WatDivGenSpec extends SparkSpec {

  private lazy val triples = TestData.triples
  private lazy val stats = TestData.stats

  test("graph is non-trivial at test scale") {
    assert(triples.count() > 3000)
  }

  test("graph obeys set semantics (no duplicate triples)") {
    assert(triples.count() == triples.distinct().count())
  }

  test("generation is deterministic for the same scale and seed") {
    val again = WatDivGen.generate(spark, TestData.Scale)
    assert(again.exceptAll(triples).isEmpty)
    assert(triples.exceptAll(again).isEmpty)
  }

  test("different seeds give different graphs") {
    val other = WatDivGen.generate(spark, TestData.Scale, seed = 42)
    assert(other.exceptAll(triples).count() > 0)
  }

  test("scale grows the graph roughly linearly") {
    val small = WatDivGen.generate(spark, 0.02).count()
    val large = WatDivGen.generate(spark, 0.08).count()
    assert(large > small * 2, s"expected ~4x growth, got $small -> $large")
  }

  test("every declared class is instantiated") {
    val classes = triples.where(col("p") === RdfType)
      .select("o").distinct().collect().map(_.getString(0)).toSet
    val expected = Set(UserClass, ProductClass, ReviewClass, OfferClass,
      RetailerClass, WebsiteClass, PurchaseClass, GenreClass, CountryClass,
      CityClass, CategoryClass)
    assert(expected.subsetOf(classes), s"missing: ${expected -- classes}")
  }

  test("a rich predicate variety is present") {
    assert(stats.predicates.size >= 40)
  }

  test("every emitted predicate is in the schema catalogue") {
    assert(stats.predicates.toSet.subsetOf(AllPredicates.toSet))
  }

  test("predicate cardinalities span orders of magnitude") {
    val counts = stats.predicates.map(stats(_).tripleCount)
    assert(counts.max > counts.min * 50,
      s"max=${counts.max} min=${counts.min}: not diverse enough")
  }

  test("follows is multi-valued") {
    assert(stats(Follows).isMultiValued)
  }

  test("likes is multi-valued") {
    assert(stats(Likes).isMultiValued)
  }

  test("rating is single-valued per review") {
    assert(!stats(Rating).isMultiValued)
  }

  test("rdf:type of users is single-valued") {
    assert(!stats(RdfType).isMultiValued)
  }

  test("partial coverage: fewer emails than users") {
    val users = stats(UserId).tripleCount
    val emails = stats(Email).tripleCount
    assert(emails > 0 && emails < users,
      s"emails=$emails users=$users: coverage should be partial")
  }

  test("age values fall in the generator's range") {
    val ages = triples.where(col("p") === Age)
      .select(col("o").cast("int")).collect().map(_.getInt(0))
    assert(ages.nonEmpty && ages.forall(a => a >= 18 && a < 38))
  }

  test("rating values fall in 1..10") {
    val ratings = triples.where(col("p") === Rating)
      .select(col("o").cast("int")).collect().map(_.getInt(0))
    assert(ratings.nonEmpty && ratings.forall(r => r >= 1 && r <= 10))
  }

  test("purchase chain edges exist (user -> purchase -> product)") {
    assert(stats(MakesPurchase).tripleCount > 0)
    assert(stats(PurchaseFor).tripleCount > 0)
  }

  test("every offer references a product") {
    val offers = triples.where(col("p") === RdfType && col("o") === OfferClass).count()
    assert(stats(Includes).tripleCount == offers)
  }

  test("object skew: some products are much more liked than others") {
    val degrees = triples.where(col("p") === Likes)
      .groupBy("o").count().select("count").collect().map(_.getLong(0))
    assert(degrees.max >= 4 * math.max(1L, degrees.min),
      s"max=${degrees.max} min=${degrees.min}: expected skew")
  }

  test("dates use the fixed lexical form") {
    val dates = triples.where(col("p") === PurchaseDate)
      .select("o").limit(20).collect().map(_.getString(0))
    assert(dates.nonEmpty && dates.forall(_.matches("\\d{4}-\\d{2}-\\d{2}")))
  }

  test("sizes floors keep query constants valid at tiny scale") {
    val sz = WatDivSchema.sizes(0.001)
    assert(sz.retailers >= 4 && sz.genres >= 6 && sz.countries >= 8 && sz.websites >= 4)
  }
}
