package repro.core

/** Structure-template AST (paper §3.3, Assumption 3).
  *
  * A structure template is a restricted regular expression over record
  * templates:
  *
  *  - `Struct`: a sequence of elements — literal characters, field
  *    placeholders, or nested templates. Modelled here as `Vector[TElem]`.
  *  - `Array`: `({A}x)*{A}y` — one or more instances of a body `A`
  *    separated by the single character `x` and terminated by the single
  *    character `y`, with `x != y` (this is what makes the grammar LL(1)).
  *
  * A field placeholder ('F' in the paper) stands for a non-empty run of
  * characters that are not formatting characters of this template.
  */
sealed trait TElem extends Serializable

/** Field placeholder — the paper's 'F'. */
case object TField extends TElem

/** A literal formatting character (member of the template's RT-CharSet). */
final case class TChar(c: Char) extends TElem

/** Array-type regular expression `({body}sep)*{body}term`, `sep != term`.
  * Matches one or more instances of `body`; the terminator is consumed.
  */
final case class TArray(body: Vector[TElem], sep: Char, term: Char) extends TElem {
  require(sep != term, s"array separator and terminator must differ (got '$sep')")
  require(body.nonEmpty, "array body must be non-empty")
}

/** A complete structure template: the top-level Struct's element sequence.
  *
  * Invariants (checked by [[Template.apply]]): the template ends with '\n' —
  * either a literal `TChar('\n')` or an array terminated by '\n' — because
  * instantiated records always end at a line boundary (Definition 2.4); and
  * its formatting characters are ASCII.
  */
final case class Template private (items: Vector[TElem]) extends Serializable {

  /** Literal formatting characters of this template (its effective
    * RT-CharSet). Field values matched by this template never contain any
    * of these characters — that is Assumption 2 operationalized, and it is
    * what the LL(1) field scanner stops on ([[ParseProgram]]).
    */
  lazy val charset: Set[Char] = {
    def walk(es: Vector[TElem], acc: Set[Char]): Set[Char] =
      es.foldLeft(acc) {
        case (s, TChar(c))          => s + c
        case (s, TArray(b, x, y))   => walk(b, s + x + y)
        case (s, TField)            => s
      }
    walk(items, Set('\n'))
  }

  /** This template compiled for parsing, once per instance. */
  @transient lazy val program: ParseProgram = ParseProgram(this)

  /** Unambiguous canonical encoding: the key that templates are
    * deduplicated, ranked and compared by. It is written and never parsed.
    * A field is written as '\u0001' and an array as '\u0002', its body,
    * '\u0003', its separator and its terminator; [[Template.apply]]
    * refuses these marks as formatting characters, so equal strings mean
    * equal templates.
    */
  lazy val canonical: String = Template.encode(items)

  /** Human-readable form, e.g. `F,"(F,)*F",F\n`. */
  lazy val pretty: String = Template.pretty(items)

  /** True if every match spans the same number of lines (no '\n' inside
    * any array body or separator position that can repeat).
    */
  lazy val fixedLineSpan: Boolean = !items.exists {
    // a body's encoding spells all its literals, separators and terminators
    case TArray(b, x, _) => x == '\n' || Template.encode(b).contains('\n')
    case _               => false
  }

  /** The top-level items split after each top-level line-ending item
    * ([[Template.endsLine]]); the last item ends a line, so the groups hold
    * every item. A '\n' inside an array body or separator does not split.
    */
  lazy val lineGroups: Vector[Vector[TElem]] = {
    val ends = items.indices.filter(i => Template.endsLine(items(i))).toVector
    (-1 +: ends).zip(ends).map { case (a, b) => items.slice(a + 1, b + 1) }
  }

  /** Length of the canonical string — the `len(ST)` of the MDL formula. */
  def encodedLength: Int = canonical.length

  override def toString: String = pretty
}

object Template {

  private val FieldMark  = '\u0001'
  private val ArrOpen    = '\u0002'
  private val ArrClose   = '\u0003'

  def apply(items: Vector[TElem]): Template = {
    require(items.nonEmpty, "empty template")
    require(endsLine(items.last), s"template must end a line: ${pretty(items)}")
    require(formatting(items),
      s"formatting characters must be ASCII and not an encoding mark: ${pretty(items)}")
    new Template(items)
  }

  /** True iff every literal, separator and terminator is ASCII, as every
    * RT-CharSet candidate is (the parse program's 128-bit mask relies on
    * it), and none is a mark of [[encode]] (the canonical string's
    * injectivity relies on that).
    */
  private def formatting(items: Vector[TElem]): Boolean = {
    def ok(c: Char) = c < 128 && (c < FieldMark || c > ArrClose)
    items.forall {
      case TChar(c)        => ok(c)
      case TArray(b, x, y) => ok(x) && ok(y) && formatting(b)
      case TField          => true
    }
  }

  private[core] def encode(items: Vector[TElem]): String = {
    val sb = new StringBuilder
    def walk(es: Vector[TElem]): Unit = es.foreach {
      case TField          => sb.append(FieldMark)
      case TChar(c)        => sb.append(c)
      case TArray(b, x, y) =>
        sb.append(ArrOpen); walk(b); sb.append(ArrClose).append(x).append(y)
    }
    walk(items)
    sb.toString
  }

  private[core] def pretty(items: Vector[TElem]): String = {
    val sb = new StringBuilder
    def walk(es: Vector[TElem]): Unit = es.foreach {
      case TField          => sb.append('F')
      case TChar(c)        => sb.append(Chars.show(c))
      case TArray(b, x, y) =>
        sb.append('('); walk(b); sb.append(Chars.show(x)); sb.append(")*")
        walk(b); sb.append(Chars.show(y))
    }
    walk(items)
    sb.toString
  }

  /** True iff a template item consumes the end of a line: a literal '\n'
    * or an array whose terminator is '\n' (the terminator is part of the
    * array node).
    */
  def endsLine(it: TElem): Boolean = it match {
    case TChar('\n')        => true
    case TArray(_, _, '\n') => true
    case _                  => false
  }
}
