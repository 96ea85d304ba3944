package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.{ByteType, DataType, IntegerType, LongType, ShortType}

import scala.collection.immutable.ArraySeq

/** A cell position in a relation instance: 0-based row and column indices.
  *
  * Mirrors Definition 2.4 of the paper, where a position is a pair
  * `(j, A_k)`; here rows are indexed densely `0..nRows-1` and attributes by
  * their column index.
  */
final case class Pos(row: Int, col: Int)

/** An *ordered* relation instance over integer-coded domains.
  *
  * The paper (Definition 2.1) models an instance as a partial map
  * `I: N -> N^m`, i.e. ordered tuples of positive integers, which makes
  * individual cells addressable and allows duplicate tuples. Every algorithm
  * here compares values only within one column, as TANE's partitions do, so
  * the cells are stored once, column-major, as `Int` arrays; arbitrary source
  * domains (strings, dates) are dictionary-encoded to `Int` — the entropy
  * framework only ever compares values for equality, so any injective
  * encoding is faithful. Build one from tuples with [[Instance.apply]],
  * [[Instance.encode]] or [[Instance.fromDataFrame]].
  *
  * @param attrs   column names, `attrs(k)` names column `k`
  * @param nRows   number of tuples, kept apart from the columns so that an
  *                arity-0 instance keeps it
  * @param columns `columns(k)(j)` is the value of attribute `k` in tuple `j`
  */
final case class Instance private (attrs: Vector[String], nRows: Int, columns: Vector[ArraySeq.ofInt]) {
  require(nRows >= 0 && columns.length == attrs.length && columns.forall(_.length == nRows), "ragged instance")

  /** Number of attributes (the arity `m`). */
  def arity: Int = attrs.length

  /** Total number of cells, `#Pos` in the paper. */
  def nCells: Int = nRows * arity

  /** The values of attribute `k`, tuple by tuple, as the array hot loops read. */
  private[core] def column(k: Int): Array[Int] = columns(k).unsafeArray

  /** `rows(j)(k)` is the value of attribute `k` in tuple `j`: a row-major
    * view of the columns, built on first read.
    */
  @transient lazy val rows: Vector[Vector[Int]] = Vector.tabulate(nRows, arity)((j, k) => columns(k)(j))

  /** Value at a position. */
  def value(p: Pos): Int = columns(p.col)(p.row)

  /** All positions, row-major. */
  def positions: Vector[Pos] = Vector.tabulate(nCells)(i => Pos(i / arity, i % arity))

  /** Index of a named attribute; throws if absent. */
  def attrIndex(name: String): Int = Instance.attrIndex(attrs, name)

  /** A value that does not occur in column `col` — the "fresh" value `a` of
    * Prop. 2.9: the largest of 0 and the successors `v + 1` of its values
    * that it does not hold, so `max + 1` unless that is negative or wraps
    * past `Int.MaxValue`. A column holds fewer than 2^32 values, so some
    * successor is free.
    */
  def freshValue(col: Int): Int = (0 +: column(col).map(_ + 1)).filterNot(column(col).toSet).max

  /** The sub-instance `I(J, K)` of Prop. 3.3: tuples with (0-based) index in
    * `rowIdx`, projected to the columns in `colIdx`. Order of `rowIdx` /
    * `colIdx` is preserved so positions can be mapped back.
    */
  def subInstance(rowIdx: Seq[Int], colIdx: Seq[Int]): Instance =
    new Instance(colIdx.map(attrs).toVector, rowIdx.length,
      colIdx.map(k => new ArraySeq.ofInt(rowIdx.map(columns(k)).toArray)).toVector)
}

object Instance {

  /** An instance from its tuples: `rows(j)(k)` is the value of attribute `k`
    * in tuple `j`. Throws if a tuple's length is not the arity.
    */
  def apply(attrs: Vector[String], rows: Vector[Vector[Int]]): Instance = {
    require(rows.forall(_.length == attrs.length), "ragged instance")
    new Instance(attrs, rows.length, Vector.tabulate(attrs.length)(k => new ArraySeq.ofInt(rows.map(_(k)).toArray)))
  }

  /** Index of `name` in `attrs`; throws, naming the attributes, if absent. */
  private[core] def attrIndex(attrs: Seq[String], name: String): Int = {
    val i = attrs.indexOf(name)
    require(i >= 0, s"unknown attribute '$name' (have: ${attrs.mkString(", ")})")
    i
  }

  /** Build an instance from in-memory tuples of arbitrary values, dictionary-
    * encoding each column by order of first occurrence. Values are keyed by
    * Java equality (so `-0.0` and `0.0` differ and every `NaN` is one value),
    * null is a value of its own, and a byte array (a `BinaryType` cell) is
    * keyed by its content.
    */
  def encode(attrs: Seq[String], tuples: Seq[Seq[Any]]): Instance = {
    require(tuples.forall(_.length == attrs.length), "ragged input")
    val rows = tuples.toIndexedSeq
    encoded(attrs, rows.length)((j, k) => rows(j)(k))
  }

  /** The one dictionary encoder behind [[encode]] and [[fromDataFrame]]: `n`
    * tuples over `attrs`, `cell(j, k)` the value of attribute `k` in tuple
    * `j`, encoded column by column as [[encode]] describes.
    */
  private def encoded(attrs: Seq[String], n: Int)(cell: (Int, Int) => Any): Instance =
    new Instance(attrs.toVector, n, Vector.tabulate(attrs.length) { k =>
      val dict = new java.util.HashMap[Any, Int]
      new ArraySeq.ofInt(Array.tabulate(n) { j =>
        val key = cell(j, k) match {
          case b: Array[Byte] => java.nio.ByteBuffer.wrap(b)
          case v => v
        }
        dict.computeIfAbsent(key, _ => dict.size)
      })
    })

  /** Build an instance from a DataFrame.
    *
    * DataFrames are unordered, but the paper's instance model is ordered
    * (cells are addressed by tuple index), so the caller names an `orderBy`
    * column that fixes the tuple order; that column is *excluded* from the
    * instance (it is a surrogate id, unique by construction, and would only
    * dilute the entropy matrix with all-ones cells).
    *
    * Runs one Spark job, `df.collect()` on the caller's DataFrame itself
    * (the id and the data columns are read by field index, data in schema
    * order), then sorts the rows by id on the driver and encodes their cells
    * in that order, column by column as [[encode]] does: no global sort, no
    * shuffle. A `select` would be a new Dataset that Catalyst analyzes,
    * optimizes and plans again on every call; `df` memoizes its own plan, so repeated calls on the same
    * DataFrame object plan nothing (a fresh DataFrame is planned once either
    * way). That plan includes its cache lookup, so `df`'s cache state is the
    * one of its first action: `cache()` `df` before the first call, or later
    * calls keep reading its source. After `df.unpersist()` later calls read
    * the source again and rebuild no cache.
    *
    * Each of these is an `IllegalArgumentException` naming the column.
    * Checked on the schema, before any job runs: an `orderBy` that names no
    * column or more than one, any other repeated column name (an attribute
    * names one column; names compare exactly), and an `orderBy` column that
    * is not `ByteType`, `ShortType`, `IntegerType` or `LongType` (the driver
    * sort needs a total order). Checked on the rows: a null or duplicate id.
    */
  def fromDataFrame(df: DataFrame, orderBy: String): Instance = {
    val names = df.columns
    val named = names.count(_ == orderBy)
    require(named == 1, s"orderBy column '$orderBy' names $named columns, not exactly one")
    val repeated = names.diff(names.distinct)
    require(repeated.isEmpty, s"column name '${repeated.head}' repeats")
    val id = df.schema.fieldIndex(orderBy)
    val idType = df.schema(id).dataType
    require(IdTypes(idType), s"orderBy column '$orderBy' has type ${idType.simpleString}, not an integral id type")
    val data = names.indices.filter(_ != id)
    val local = df.collect()
    val ids = local.map { r =>
      require(!r.isNullAt(id), s"orderBy column '$orderBy' has a null id")
      r.getAs[Number](id).longValue
    }
    val order = local.indices.sortBy(ids)
    for (i <- 1 until order.length)
      require(ids(order(i)) != ids(order(i - 1)), s"orderBy column '$orderBy' has duplicate id ${ids(order(i))}")
    encoded(data.map(names), order.length)((j, k) => local(order(j)).get(data(k)))
  }

  private val IdTypes = Set[DataType](ByteType, ShortType, IntegerType, LongType)
}
