package prostbench

import scala.util.Random
import scala.util.matching.Regex

import repro.watdiv.{WatDivQueries, WatDivSchema}

/** One request of a query workload: a WatDiv template with its constants
  * redrawn. `set` numbers the draw; `drawn` lists the constants it chose.
  */
final case class Instance(template: String, group: String, set: Int, sparql: String, drawn: Seq[String])

/** WatDiv-style query instantiation (Aluç et al., ISWC 2014). Every
  * template of the basic set keeps its shape, and each IRI or literal
  * constant in it is redrawn from values the generator produces at every
  * scale: entity ids below the [[WatDivSchema.sizes]] floors, and the
  * generator's literal value pools. Consecutive requests therefore do not
  * repeat identical work, yet every instance has a defined answer.
  */
object Instances {

  private val floors = WatDivSchema.sizes(0.0)

  /** Entity IRI kind -> number of ids that exist at every scale. */
  private val entityIds: Map[String, Long] = Map(
    "Country" -> floors.countries,
    "Genre" -> floors.genres,
    "Retailer" -> floors.retailers,
    "Website" -> floors.websites,
  )

  /** Literal-object predicate -> the values the generator draws from. */
  private val literalPools: Map[String, IndexedSeq[String]] = Map(
    WatDivSchema.Age -> (18 until 38).map(_.toString),
    WatDivSchema.Gender -> IndexedSeq("male", "female"),
    WatDivSchema.ContentRating -> IndexedSeq("G", "PG", "PG-13", "R"),
    WatDivSchema.Rating -> (1 to 10).map(_.toString),
  )

  private val EntityIri = """wsdbm:(Country|Genre|Retailer|Website)\d+""".r
  private val LiteralObject = """(\S+) "[^"]*"""".r

  /** Redraw every constant of `sparql`; returns the text and the drawn values. */
  def instantiate(sparql: String, rnd: Random): (String, Seq[String]) = {
    val drawn = Seq.newBuilder[String]
    val withIris = EntityIri.replaceAllIn(sparql, m => {
      val iri = s"wsdbm:${m.group(1)}${rnd.nextLong(entityIds(m.group(1)))}"
      drawn += iri
      iri
    })
    val text = LiteralObject.replaceAllIn(withIris, m => {
      val pool = literalPools.getOrElse(m.group(1),
        sys.error(s"no value pool for literal object of ${m.group(1)}"))
      val value = pool(rnd.nextInt(pool.size))
      drawn += "\"" + value + "\""
      Regex.quoteReplacement(s"""${m.group(1)} "$value"""")
    })
    (text, drawn.result())
  }

  /** Draw number `set` of the whole basic set, in template order. */
  def draw(seed: Long, set: Int): IndexedSeq[Instance] = {
    val rnd = new Random(seed * 1000003L + set)
    WatDivQueries.All.map { q =>
      val (text, drawn) = instantiate(q.sparql, rnd)
      Instance(q.name, q.group, set, text, drawn)
    }.toIndexedSeq
  }

  /** The order in which pass `pass` visits the `n` templates. */
  def passOrder(seed: Long, pass: Int, n: Int): Seq[Int] =
    new Random(seed * 1000033L + pass).shuffle((0 until n).toVector)
}
