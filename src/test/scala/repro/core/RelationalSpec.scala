package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Normalized relational output (paper §3.3 / Fig 7). */
class RelationalSpec extends AnyFunSuite {

  private val F = TField
  private def c(ch: Char) = TChar(ch)

  test("schemas: struct-only template has a single root table") {
    val t = Template(Vector(F, c(','), F, c('\n')))
    assert(Relational.schemas(t) == Vector(Relational.TableSchema("", Vector("f0", "f1"))))
  }

  test("schemas: each array node becomes a child table") {
    val t = Template(Vector(F, c(' '), TArray(Vector(F, c(':'), F), ',', '\n')))
    assert(Relational.schemas(t) == Vector(
      Relational.TableSchema("", Vector("f0")),
      Relational.TableSchema("a0", Vector("a0.f0", "a0.f1"))
    ))
  }

  test("schemas: nested arrays nest table paths") {
    val t = Template(Vector(TArray(Vector(TArray(Vector(F), '.', ';')), ',', '\n')))
    assert(Relational.schemas(t).map(_.path) == Vector("", "a0", "a0.a0"))
  }

  test("toRows: root row carries struct fields in order") {
    val t = Template(Vector(F, c(','), F, c('\n')))
    val p = ParseRecord(t, "x,y\n").get
    assert(Relational.toRows(p) == Vector(Relational.TableRow(-1, "", "", Vector("x", "y"))))
  }

  test("toRows: array elements become child rows with ordinal") {
    val t = Template(Vector(F, c(' '), TArray(Vector(F, c(':'), F), ',', '\n')))
    val p = ParseRecord(t, "h a:1,b:2\n").get
    val rows = Relational.toRows(p)
    assert(rows.head == Relational.TableRow(-1, "", "", Vector("h")))
    assert(rows.tail == Vector(
      Relational.TableRow(0, "a0", "0", Vector("a", "1")),
      Relational.TableRow(0, "a0", "1", Vector("b", "2"))
    ))
  }

  test("toRows: nested array ordinals are dotted paths") {
    val t = Template(Vector(TArray(Vector(TArray(Vector(F), '.', ';')), ',', '\n')))
    val p = ParseRecord(t, "1.2;,3;\n").get
    val rows = Relational.toRows(p)
    val nested = rows.filter(_.path == "a0.a0")
    assert(nested.map(_.ord) == Vector("0.0", "0.1", "1.0"))
    assert(nested.map(_.values) == Vector(Vector("1"), Vector("2"), Vector("3")))
  }

  test("row values align with schema columns for every table") {
    val t = Template(Vector(F, c('|'), TArray(Vector(F), ',', '|'), F, c('\n')))
    val p = ParseRecord(t, "a|1,2,3|z\n").get
    val schemaByPath = Relational.schemas(t).map(s => s.path -> s.cols).toMap
    for (row <- Relational.toRows(p)) {
      assert(row.values.length == schemaByPath(row.path).length,
        s"row $row vs schema ${schemaByPath(row.path)}")
    }
  }
}
