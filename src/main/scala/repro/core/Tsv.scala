package repro.core

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._
import scala.util.matching.Regex

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.{udf, when}

/** The one rule for a term in a field of a tab-separated line, used by
  * every text file the reproduction reads: the source dump, SPARQLGX's
  * partitions and `stats.tsv`. As in N-Triples,
  * `\` becomes `\\` and tab, LF and CR become `\t`, `\n` and `\r`, so any
  * term is one field of one line. Local filesystem only, like all storage.
  */
object Tsv {

  /** `term` with backslash, tab, LF and CR escaped. */
  def encode(term: String): String =
    term.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")

  private val Escape = """(?s)\\(.?)""".r
  private val Unescaped = Map("\\" -> "\\", "t" -> "\t", "n" -> "\n", "r" -> "\r")

  /** The term [[encode]] turned into `field`, or why `field` is not one:
    * it holds an escape [[encode]] never writes, or ends in a lone `\`.
    */
  private def decoded(field: String): Either[String, String] =
    Escape.findAllMatchIn(field).map(_.group(1)).find(!Unescaped.contains(_))
      .map(c => if (c.isEmpty) "trailing \\" else s"unknown escape \\$c")
      .toLeft(Escape.replaceAllIn(field, m => Regex.quoteReplacement(Unescaped(m.group(1)))))

  /** [[decoded]], with the reason for a rejection showing `field`. */
  private def checked(field: String): Either[String, String] =
    decoded(field).left.map(why => s"$why in \"$field\"")

  /** [[checked]], failing with the reason it gives. */
  def decode(field: String): String =
    checked(field).fold(why => throw new IllegalArgumentException(why), identity)

  /** [[encode]] of each value of `c`. */
  def encode(c: Column): Column = viaUdf(encode(_: String))(c)

  /** [[decode]] of each value of `c`. */
  def decode(c: Column): Column = viaUdf(decode(_: String))(c)

  /** Why [[decode]] would reject each value of `c`, or null where it would
    * not. Only a value holding `\` can be rejected; no other passes the UDF.
    */
  def rejection(c: Column): Column =
    when(c.contains("\\"), udf((f: String) => checked(f).left.toOption.orNull).apply(c))

  /** `f` of each value of `c` that holds `\`, tab, LF or CR; any other
    * value, which `f` keeps as it is, passes by the UDF.
    */
  private def viaUdf(f: String => String)(c: Column): Column =
    when(Seq("\\", "\t", "\n", "\r").map(c.contains).reduce(_ || _), udf(f).apply(c)).otherwise(c)

  /** Write `rows` to `path`, one line each of its [[encode]]d fields. */
  def write(path: String, rows: Seq[Seq[String]]): Unit = {
    Files.createDirectories(Paths.get(path).toAbsolutePath.getParent)
    Files.write(Paths.get(path), rows.map(_.map(encode).mkString("\t")).asJava, StandardCharsets.UTF_8)
    ()
  }

  /** Parse every non-empty line of `path` with `parse`, which gets the
    * line's `width` [[decode]]d fields and returns the record or why it is
    * malformed. A bad line fails with `path:line: reason: "encoded line"`.
    */
  def read[A](path: String, width: Int)(parse: Array[String] => Either[String, A]): Seq[A] = {
    val lines = Files.readAllLines(Paths.get(path), StandardCharsets.UTF_8).asScala.toSeq
    lines.zipWithIndex.filter(_._1.nonEmpty).map { case (line, i) =>
      val fields = line.split("\t", -1)
      val (bad, terms) = fields.partitionMap(decoded)
      val parsed =
        if (fields.length != width) Left(s"expected $width tab-separated fields, found ${fields.length}")
        else bad.headOption.toLeft(terms).flatMap(parse)
      parsed.fold(why =>
        throw new IllegalArgumentException(s"$path:${i + 1}: $why: \"${encode(line)}\""), identity)
    }
  }
}
