package repro.util

import java.nio.file.{Files, Path}
import scala.jdk.StreamConverters._

/** Wall-clock and on-disk helpers: timing, directory sizes and deletes. */
object Timing {

  /** Run `body`, return (result, elapsed milliseconds). */
  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val result = body
    (result, (System.nanoTime() - t0) / 1000000L)
  }

  /** Recursive byte count of a directory tree (0 for a missing path). */
  def dirBytes(path: Path): Long =
    if (!Files.exists(path)) 0L
    else Files.walk(path).toScala(Seq).filter(Files.isRegularFile(_)).map(Files.size).sum

  /** Delete `path` and everything under it; a missing path is a no-op. */
  def deleteTree(path: Path): Unit =
    if (Files.exists(path)) Files.walk(path).toScala(Seq).reverse.foreach(Files.deleteIfExists)

  /** Human-readable size, e.g. `12.3 MB`. */
  def humanBytes(bytes: Long): String = {
    if (bytes < 1024) s"$bytes B"
    else if (bytes < 1024 * 1024) f"${bytes / 1024.0}%.1f KB"
    else if (bytes < 1024L * 1024 * 1024) f"${bytes / 1024.0 / 1024}%.1f MB"
    else f"${bytes / 1024.0 / 1024 / 1024}%.2f GB"
  }

  /** Human-readable duration, e.g. `2m 05s` or `850ms`. */
  def humanMillis(ms: Long): String =
    if (ms < 10000) s"${ms}ms"
    else if (ms < 60000) f"${ms / 1000.0}%.1fs"
    else f"${ms / 60000}%dm ${(ms % 60000) / 1000}%02ds"
}
