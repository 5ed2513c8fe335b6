package repro.watdiv

/** Catalogue of the WatDiv-like schema used by the reproduction.
  *
  * Real WatDiv (Aluç et al., ISWC 2014) is an e-commerce graph: users who
  * follow/like, products with genres and reviews, retailers with offers,
  * purchases. Its value for the PRoST evaluation is *structural* diversity:
  * many predicates of wildly different cardinality, star-heavy entities,
  * multi-valued edges and sparse attributes. This catalogue reproduces
  * those structural properties with 46 predicates.
  */
object WatDivSchema {

  // ---- predicates --------------------------------------------------------
  val RdfType          = "rdf:type"
  val UserId           = "wsdbm:userId"
  val GivenName        = "foaf:givenName"
  val FamilyName       = "foaf:familyName"
  val Email            = "sorg:email"
  val Age              = "foaf:age"
  val Gender           = "wsdbm:gender"
  val Nationality      = "sorg:nationality"
  val GradeLevel       = "wsdbm:gradeLevel"
  val Homepage         = "foaf:homepage"
  val Follows          = "wsdbm:follows"
  val FriendOf         = "wsdbm:friendOf"
  val Likes            = "wsdbm:likes"
  val Subscribes       = "wsdbm:subscribes"
  val Caption          = "sorg:caption"
  val Description      = "sorg:description"
  val ContentRating    = "sorg:contentRating"
  val ContentSize      = "sorg:contentSize"
  val Expires          = "sorg:expires"
  val HasGenre         = "wsdbm:hasGenre"
  val Publisher        = "sorg:publisher"
  val Author           = "sorg:author"
  val ProductCategory  = "wsdbm:productCategory"
  val HasReview        = "rev:hasReview"
  val Reviewer         = "rev:reviewer"
  val Rating           = "rev:rating"
  val ReviewTitle      = "rev:title"
  val ReviewText       = "rev:text"
  val TotalVotes       = "rev:totalVotes"
  val OffersPred       = "gr:offers"
  val Includes         = "gr:includes"
  val Price            = "gr:price"
  val SerialNumber     = "gr:serialNumber"
  val ValidFrom        = "gr:validFrom"
  val ValidThrough     = "gr:validThrough"
  val EligibleRegion   = "sorg:eligibleRegion"
  val MakesPurchase    = "wsdbm:makesPurchase"
  val PurchaseFor      = "wsdbm:purchaseFor"
  val PurchaseDate     = "wsdbm:purchaseDate"
  val LegalName        = "sorg:legalName"
  val PaymentAccepted  = "sorg:paymentAccepted"
  val RetailerCountry  = "wsdbm:country"
  val Url              = "sorg:url"
  val Hits             = "wsdbm:hits"
  val Language         = "sorg:language"
  val ParentCountry    = "gn:parentCountry"

  /** All predicates the generator can emit. */
  val AllPredicates: Seq[String] = Seq(
    RdfType, UserId, GivenName, FamilyName, Email, Age, Gender, Nationality,
    GradeLevel, Homepage, Follows, FriendOf, Likes, Subscribes, Caption,
    Description, ContentRating, ContentSize, Expires, HasGenre, Publisher,
    Author, ProductCategory, HasReview, Reviewer, Rating, ReviewTitle,
    ReviewText, TotalVotes, OffersPred, Includes, Price, SerialNumber,
    ValidFrom, ValidThrough, EligibleRegion, MakesPurchase, PurchaseFor,
    PurchaseDate, LegalName, PaymentAccepted, RetailerCountry, Url, Hits,
    Language, ParentCountry,
  )

  // ---- classes (rdf:type objects) and entity URI prefixes ---------------
  val UserClass     = "wsdbm:User"
  val ProductClass  = "wsdbm:Product"
  val ReviewClass   = "wsdbm:Review"
  val OfferClass    = "gr:Offer"
  val RetailerClass = "wsdbm:Retailer"
  val WebsiteClass  = "wsdbm:Website"
  val PurchaseClass = "wsdbm:Purchase"
  val GenreClass    = "wsdbm:Genre"
  val CountryClass  = "wsdbm:Country"
  val CityClass     = "wsdbm:City"
  val CategoryClass = "wsdbm:ProductCategory"

  /** Entity counts at a given scale; `scale = 1.0` targets ~130k triples
    * (one thousandth of the paper's WatDiv100M, near real WatDiv SF1).
    * Floors keep the low-numbered entity IDs referenced by the query set
    * valid at every test scale.
    */
  final case class Sizes(
      users: Long, products: Long, reviews: Long, offers: Long,
      retailers: Long, websites: Long, purchases: Long, genres: Long,
      countries: Long, cities: Long, categories: Long,
  )

  def sizes(scale: Double): Sizes = {
    def n(base: Long, floor: Long): Long = math.max(floor, (base * scale).toLong)
    Sizes(
      users      = n(4000, 40),
      products   = n(1000, 20),
      reviews    = n(6000, 60),
      offers     = n(2400, 24),
      retailers  = n(80, 8),
      websites   = n(240, 10),
      purchases  = n(5000, 50),
      genres     = n(40, 8),
      countries  = n(25, 8),
      cities     = n(80, 8),
      categories = n(20, 6),
    )
  }
}
