package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec

class InstanceSpec extends AnyFunSuite with SparkSpec {

  private val inst = Instance(
    Vector("A", "B", "C"),
    Vector(Vector(0, 1, 2), Vector(0, 1, 3), Vector(4, 5, 6)),
  )

  test("arity, nRows and nCells") {
    assert(inst.arity == 3)
    assert(inst.nRows == 3)
    assert(inst.nCells == 9)
  }

  test("value reads the addressed cell") {
    assert(inst.value(Pos(1, 2)) == 3)
    assert(inst.value(Pos(2, 0)) == 4)
  }

  test("positions enumerates row-major") {
    assert(inst.positions.take(4) == Vector(Pos(0, 0), Pos(0, 1), Pos(0, 2), Pos(1, 0)))
    assert(inst.positions.size == 9)
  }

  test("attrIndex resolves and rejects") {
    assert(inst.attrIndex("B") == 1)
    assertThrows[IllegalArgumentException](inst.attrIndex("Z"))
  }

  test("freshValue does not collide with column values") {
    for (k <- 0 until 3) {
      val fresh = inst.freshValue(k)
      assert(!inst.rows.exists(_(k) == fresh))
    }
  }

  test("freshValue of an empty instance is 0") {
    assert(Instance(Vector("A"), Vector.empty).freshValue(0) == 0)
  }

  test("subInstance projects rows and columns in order") {
    val sub = inst.subInstance(Seq(0, 2), Seq(2, 0))
    assert(sub.attrs == Vector("C", "A"))
    assert(sub.rows == Vector(Vector(2, 0), Vector(6, 4)))
  }

  test("ragged instances are rejected") {
    assertThrows[IllegalArgumentException](
      Instance(Vector("A", "B"), Vector(Vector(1), Vector(1, 2))))
  }

  test("encode dictionary-codes by first occurrence per column") {
    val e = Instance.encode(Seq("X", "Y"), Seq(Seq("b", 7), Seq("a", 7), Seq("b", 9)))
    assert(e.rows == Vector(Vector(0, 0), Vector(1, 0), Vector(0, 1)))
  }

  test("encode keeps equal values equal and distinct values distinct") {
    val vals = Seq(Seq("x"), Seq("y"), Seq("x"), Seq("z"))
    val e = Instance.encode(Seq("A"), vals)
    assert(e.rows(0)(0) == e.rows(2)(0))
    assert(Set(e.rows(0)(0), e.rows(1)(0), e.rows(3)(0)).size == 3)
  }

  test("encode handles nulls as a distinct value") {
    val e = Instance.encode(Seq("A"), Seq(Seq(null), Seq("x"), Seq(null), Seq("null")))
    assert(e.rows(0)(0) == e.rows(2)(0))
    assert(e.rows(0)(0) != e.rows(1)(0))
    assert(e.rows(0)(0) != e.rows(3)(0))
  }

  test("fromDataFrame fixes tuple order by the orderBy column and drops it") {
    import spark.implicits._
    val df = Seq((2L, "b", "y"), (0L, "a", "x"), (1L, "a", "z"))
      .toDF("id", "u", "v")
    val inst = Instance.fromDataFrame(df, "id")
    assert(inst.attrs == Vector("u", "v"))
    // Row order follows id: (a,x), (a,z), (b,y).
    assert(inst.rows(0)(0) == inst.rows(1)(0)) // "a" == "a"
    assert(inst.rows(0)(1) != inst.rows(1)(1)) // "x" != "z"
    assert(inst.rows(2)(0) != inst.rows(0)(0)) // "b" != "a"
  }

  test("fromDataFrame is deterministic across calls") {
    import spark.implicits._
    val df = Seq((0L, "p"), (1L, "q"), (2L, "p")).toDF("id", "u")
    assert(Instance.fromDataFrame(df, "id") == Instance.fromDataFrame(df, "id"))
  }
}
