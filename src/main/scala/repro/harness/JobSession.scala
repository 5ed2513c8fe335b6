package repro.harness

import org.apache.spark.sql.SparkSession

/** The one SparkSession factory: the `jobs/` spark-submit entrypoints, the
  * benchmark program and the test suites all open their session here.
  * Broadcast joins are disabled so the shuffle join paths the paper
  * exercises on its cluster are exercised locally.
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

  def create(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", 64)
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
}
