package repro.core

/** A record text's minimal structure template, built as the generation
  * step builds a candidate's: its lines' interned templates concatenated
  * ([[TemplateOps.LineTemplates]]).
  */
object MinimalTemplate {

  /** The minimal template of `text`, which must end with '\n', under
    * formatting characters `cs`; None when it has no field or more than
    * [[TemplateOps.MaxTemplateItems]] items.
    */
  def apply(text: String, cs: Set[Char]): Option[Template] = {
    require(text.endsWith("\n"), "a record text ends a line")
    val lines = new TemplateOps.LineTemplates
    val ids = text.dropRight(1).split("\n", -1).toVector
      .map(l => TemplateOps.LineTemplates.id(lines.reduceLine(l, cs.contains)))
    val items = ids.flatMap(lines.items)
    if (!ids.exists(lines.hasField) || items.length > TemplateOps.MaxTemplateItems) None
    else Some(Template(items))
  }
}
