package repro.harness

import org.apache.spark.sql.SparkSession

/** The one SparkSession factory: the `jobs/` spark-submit entrypoints, the
  * benchmark program and the test suites all open their session here.
  * Broadcast joins are disabled so the shuffle join paths the paper
  * exercises on its cluster are exercised locally.
  *
  * Every shuffle has one partition per core: `spark.sql.shuffle.partitions`
  * is the session's `defaultParallelism`, so `SPARK_MASTER` alone decides
  * the width. With a fixed 64 on a 4-core machine, every map task of every
  * join, `DISTINCT` and load aggregation split its output 64 ways, and
  * adaptive execution then merged the partitions back to about one per
  * core. In a warm 4-core probe of the 20 WatDiv queries in mixed mode,
  * the geometric mean was 117 ms with 64 partitions against 95 ms with 4
  * and 99 ms with 8, and 1 partition was as fast as 4; the multi-join
  * queries gained most (C1 683 → 471 ms, F3 343 → 186 ms), and one-stage
  * star queries stayed at about 40 ms.
  * The Join Trees, each plan's Exchange and join counts and the on-disk
  * layout (one file per VP predicate, the PT hash-partitioned on `s`) do
  * not depend on the width. SPARQLGX's RDD joins do not read it.
  */
object JobSession {

  /** Entries of Spark's JVM-wide generated-code cache
    * (`spark.sql.codegen.cache.maxEntries`, default 100). WatDiv traffic
    * repeats the same 20 query shapes, and one pass of them in mixed and
    * VP-only mode compiles several hundred classes. 100 entries would evict
    * them before the next pass, so every repeated request would compile its
    * classes again with Janino and HotSpot would JIT-compile them again.
    * Measured working sets of distinct generated classes in one JVM
    * (4 cores): 424 in the `bench/` JVM (`sbt bench/test`, all five
    * configurations, WatDiv scale 1) and 1372 in the test JVM
    * (`sbt test`, 356 tests). This constant is more than twice the larger.
    *
    * The setting is a static conf: Spark builds the cache once per JVM,
    * from the conf of the first session, so it has to go on the builder;
    * a later `spark.conf.set` cannot change it.
    */
  val CodegenCacheEntries = 4000

  def create(appName: String): SparkSession = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      // SPARQL variables are case-sensitive (`?x` and `?X` differ), and
      // every engine names its binding columns after them.
      .config("spark.sql.caseSensitive", true)
      .config("spark.sql.codegen.cache.maxEntries", CodegenCacheEntries.toLong)
      // The cache key is the generated source, and by default the class
      // name in it carries the whole-stage codegen stage id. Adaptive
      // execution numbers stages in the order they materialise, so the
      // same stage could get another id, and another class, on each run.
      .config("spark.sql.codegen.useIdInClassName", false)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    // The core count is known only once the context is up.
    spark.conf.set("spark.sql.shuffle.partitions", spark.sparkContext.defaultParallelism.toLong)
    spark
  }
}
