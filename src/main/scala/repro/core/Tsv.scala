package repro.core

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._

/** The tab-separated metadata files the stores keep next to their tables
  * (`stats.tsv`, S2RDF's `ext_sizes.tsv`): one record per line, UTF-8.
  * Local filesystem only, like all the reproduction's storage.
  */
object Tsv {

  /** Write `rows` to `path`, one tab-joined line each. A field holding a
    * tab or line break cannot be written as one TSV field and is rejected
    * before anything is written.
    */
  def write(path: String, rows: Seq[Seq[String]]): Unit = {
    rows.flatten.find(_.exists(c => c == '\t' || c == '\n' || c == '\r')).foreach { f =>
      throw new IllegalArgumentException(
        s"cannot write $path: field ${escape(f)} contains a tab or line break")
    }
    Files.createDirectories(Paths.get(path).toAbsolutePath.getParent)
    Files.write(Paths.get(path), rows.map(_.mkString("\t")).asJava, StandardCharsets.UTF_8)
    ()
  }

  /** Parse every non-empty line of `path` with `parse`, which gets the
    * line's `width` fields and returns the record or why it is malformed.
    * A bad line fails with `path:line: reason: "escaped line"`.
    */
  def read[A](path: String, width: Int)(parse: Array[String] => Either[String, A]): Seq[A] = {
    val lines = Files.readAllLines(Paths.get(path), StandardCharsets.UTF_8).asScala.toSeq
    lines.zipWithIndex.filter(_._1.nonEmpty).map { case (line, i) =>
      val fields = line.split("\t", -1)
      val parsed =
        if (fields.length != width) Left(s"expected $width tab-separated fields, found ${fields.length}")
        else parse(fields)
      parsed.fold(why => throw new IllegalArgumentException(s"$path:${i + 1}: $why: ${escape(line)}"), identity)
    }
  }

  /** `s` quoted, with tabs and line breaks shown as escapes. */
  def escape(s: String): String =
    "\"" + s.replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r") + "\""
}
