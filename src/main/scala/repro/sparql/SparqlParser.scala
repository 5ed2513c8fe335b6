package repro.sparql

/** Hand-written tokenizer + recursive-descent parser for the SPARQL
  * fragment used throughout the reproduction:
  *
  * {{{
  * query   := prefix* "SELECT" "DISTINCT"? projection "WHERE" "{" triples "}"
  * prefix  := "PREFIX" PNAME ":" IRIREF          // checked, then ignored:
  *                                               // data keeps prefixed names
  * proj    := "*" | var+
  * triples := pattern ("." pattern)* "."?
  * pattern := term term term
  * term    := var | literal | iri
  * var     := "?" NAME
  * literal := '"' (char | ECHAR)* '"' | NUMBER  // ECHAR: \t \b \n \r \f \" \' \\
  * iri     := "<" chars ">" | PNAME ":" NAME | NAME
  * }}}
  *
  * IRIs written as `<...>` are kept verbatim without the angle brackets so
  * queries can reference whatever form the data uses.
  */
object SparqlParser {

  /** Thrown on any syntax error, with a human-readable position message. */
  final case class ParseException(message: String) extends RuntimeException(message)

  /** A token; errors quote it as `text`, close to how the query wrote it. */
  private sealed abstract class Token(text: String) {
    override def toString: String = s"'$text'"
  }
  private case class TWord(s: String) extends Token(s) // keywords, prefixed names, bare names
  private case class TIri(iri: String) extends Token(s"<$iri>")
  private case class TVar(name: String) extends Token(s"?$name")
  private case class TLit(value: String) extends Token("\"" + value + "\"")
  private case object TLBrace extends Token("{")
  private case object TRBrace extends Token("}")
  private case object TDot extends Token(".")
  private case object TStar extends Token("*")

  /** SPARQL 1.1's string escapes (ECHAR), by the character after `\`. */
  private val Echars: Map[Char, Char] =
    Map('t' -> '\t', 'b' -> '\b', 'n' -> '\n', 'r' -> '\r', 'f' -> '\f', '"' -> '"', '\'' -> '\'', '\\' -> '\\')

  private def tokenize(input: String): Vector[Token] = {
    val out = Vector.newBuilder[Token]
    var i = 0
    val n = input.length
    def err(msg: String): Nothing =
      throw ParseException(s"$msg at offset $i in query")
    while (i < n) {
      val c = input(i)
      if (c.isWhitespace) i += 1
      else if (c == '#') { // comment to end of line
        while (i < n && input(i) != '\n') i += 1
      } else if (c == '{') { out += TLBrace; i += 1 }
      else if (c == '}') { out += TRBrace; i += 1 }
      else if (c == '.') { out += TDot; i += 1 }
      else if (c == '*') { out += TStar; i += 1 }
      else if (c == '?' || c == '$') {
        val start = i + 1
        i += 1
        while (i < n && (input(i).isLetterOrDigit || input(i) == '_')) i += 1
        if (i == start) err("empty variable name")
        out += TVar(input.substring(start, i))
      } else if (c == '"') {
        val start = i + 1
        i += 1
        val sb = new StringBuilder
        var closed = false
        while (i < n && !closed) {
          input(i) match {
            case '\\' if i + 1 < n =>
              sb += Echars.getOrElse(input(i + 1), err(s"invalid escape '\\${input(i + 1)}'"))
              i += 2
            case '"'               => closed = true; i += 1
            case ch                => sb += ch; i += 1
          }
        }
        if (!closed) err(s"unterminated string literal starting at $start")
        out += TLit(sb.toString)
      } else if (c == '<') {
        val close = input.indexOf('>', i)
        if (close < 0) err("unterminated IRI")
        out += TIri(input.substring(i + 1, close))
        i = close + 1
      } else if (c.isDigit || (c == '-' && i + 1 < n && input(i + 1).isDigit)) {
        val start = i
        i += 1
        // a '.' is part of the number only before a digit (DECIMAL ::= [0-9]* '.' [0-9]+),
        // and a number holds at most one
        while (i < n && (input(i).isDigit || (input(i) == '.' && i + 1 < n && input(i + 1).isDigit))) i += 1
        val number = input.substring(start, i)
        if (number.count(_ == '.') > 1) err(s"malformed number '$number'")
        out += TLit(number)
      } else if (c.isLetter || c == '_') {
        val start = i
        while (i < n && (input(i).isLetterOrDigit || input(i) == '_' ||
                         input(i) == ':' || input(i) == '-' || input(i) == '/')) i += 1
        out += TWord(input.substring(start, i))
      } else err(s"unexpected character '$c'")
    }
    out.result()
  }

  /** Parse `input` into a [[BgpQuery]]; throws [[ParseException]] on error. */
  def parse(input: String): BgpQuery = {
    val tokens = tokenize(input)
    var pos = 0
    def peek: Option[Token] = if (pos < tokens.length) Some(tokens(pos)) else None
    def next(): Token = {
      if (pos >= tokens.length) throw ParseException("unexpected end of query")
      val t = tokens(pos); pos += 1; t
    }
    def expectWord(kw: String): Unit = next() match {
      case TWord(w) if w.equalsIgnoreCase(kw) => ()
      case other => throw ParseException(s"expected '$kw', found $other")
    }

    // PREFIX declarations: checked and skipped — data uses prefixed names.
    var scanning = true
    while (scanning) peek match {
      case Some(TWord(w)) if w.equalsIgnoreCase("PREFIX") =>
        next()
        next() match { // the tokenizer folds "ex:" into one word
          case TWord(name) if name.endsWith(":") => ()
          case other =>
            throw ParseException(s"expected a prefix name ending in ':' after PREFIX, found $other")
        }
        next() match {
          case TIri(_) => ()
          case other   =>
            throw ParseException(s"expected an IRI in '<...>' after the prefix name, found $other")
        }
      case _ => scanning = false
    }

    expectWord("SELECT")
    val distinct = peek match {
      case Some(TWord(w)) if w.equalsIgnoreCase("DISTINCT") => next(); true
      case _ => false
    }
    var proj = Vector.empty[Var]
    var star = false
    var reading = true
    while (reading) peek match {
      case Some(TVar(v)) if !star               => next(); proj :+= Var(v)
      case Some(TStar) if !star && proj.isEmpty => next(); star = true
      case Some(t @ (TVar(_) | TStar)) =>
        throw ParseException(s"SELECT takes either '*' or variables: found $t")
      case _ => reading = false
    }
    if (!star && proj.isEmpty)
      throw ParseException("SELECT needs at least one variable or *")
    expectWord("WHERE")
    next() match {
      case TLBrace => ()
      case other   => throw ParseException(s"expected '{', found $other")
    }

    def term(): Term = next() match {
      case TVar(v)  => Var(v)
      case TLit(l)  => Lit(l)
      case TWord(w) => Iri(w)
      case TIri(i)  => Iri(i)
      case other    => throw ParseException(s"expected a term, found $other")
    }

    val patterns = Vector.newBuilder[TriplePattern]
    var inBgp = true
    while (inBgp) peek match {
      case Some(TRBrace) => next(); inBgp = false
      case Some(TDot)    => next() // tolerate separators / trailing dot
      case None          => throw ParseException("unterminated BGP: missing '}'")
      case _ =>
        val s = term()
        val p = term() match {
          case i: Iri => i
          case other  => throw ParseException(s"predicate must be an IRI, found $other")
        }
        val o = term()
        patterns += TriplePattern(s, p, o)
    }
    val pats = patterns.result()
    if (pats.isEmpty) throw ParseException("empty basic graph pattern")
    peek.foreach(t => throw ParseException(s"unexpected $t after the closing '}'"))

    val query = BgpQuery(proj, pats, distinct)
    val bound = query.allVariables.toSet
    val unbound = query.projection.filterNot(bound)
    if (unbound.nonEmpty)
      throw ParseException(s"projected variables not bound in BGP: ${unbound.mkString(", ")}")
    query
  }
}
