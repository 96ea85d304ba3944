package repro.core

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerStageCompleted}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.QueryExecutionListener
import org.scalatest.funsuite.AnyFunSuite

import scala.collection.immutable.ArraySeq
import scala.jdk.CollectionConverters._

import repro.SparkSpec
import repro.data.Datasets

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
    assert(sub.columns == Vector(ArraySeq(2, 6), ArraySeq(0, 4)))
    assert(inst.subInstance(Seq(2, 0, 2), Seq(1)).columns == Vector(ArraySeq(5, 1, 5)))
    assert(inst.subInstance(Seq(0, 1), Seq.empty).nRows == 2)
    assert(inst.subInstance(Seq.empty, Seq(0, 2)) == Instance(Vector("A", "C"), Vector.empty))
  }

  test("ragged instances are rejected") {
    assertThrows[IllegalArgumentException](
      Instance(Vector("A", "B"), Vector(Vector(1), Vector(1, 2))))
    for (rows <- Seq(Vector(Vector(1), Vector(1, 2)), Vector(Vector(1, 2), Vector(1, 2, 3)))) {
      val e = intercept[IllegalArgumentException](Instance(Vector("A", "B"), rows))
      assert(e.getMessage == "requirement failed: ragged instance")
    }
  }

  test("the columns hold the tuples column-major and rows gives them back") {
    val rows = Vector(Vector(0, 1, 2), Vector(0, 1, 3), Vector(4, 5, 6))
    assert(inst.columns == Vector(ArraySeq(0, 0, 4), ArraySeq(1, 1, 5), ArraySeq(2, 3, 6)))
    assert(inst.rows == rows)
    assert(Instance(inst.attrs, inst.rows) == inst)
  }

  test("equality and hashCode agree across apply, encode and fromDataFrame") {
    import spark.implicits._
    val attrs = Vector("u", "v")
    val viaApply = Instance(attrs, Vector(Vector(0, 0), Vector(1, 0), Vector(0, 1)))
    val viaEncode = Instance.encode(attrs, Seq(Seq("a", 7L), Seq("b", 7L), Seq("a", 9L)))
    val viaFrame = Instance.fromDataFrame(Seq((2L, "a", 9L), (0L, "a", 7L), (1L, "b", 7L)).toDF("id", "u", "v"), "id")
    for (other <- Seq(viaEncode, viaFrame)) {
      assert(other == viaApply && viaApply == other)
      assert(other.hashCode == viaApply.hashCode)
    }
    val differs = Instance(attrs, Vector(Vector(0, 0), Vector(1, 0), Vector(0, 0)))
    assert(differs != viaApply)
    assert(Instance(Vector("u", "w"), viaApply.rows) != viaApply)
  }

  test("an arity-0 instance keeps its row count and a 0-row instance its arity") {
    val noCols = Instance(Vector.empty, Vector.fill(4)(Vector.empty))
    assert(noCols.nRows == 4 && noCols.arity == 0 && noCols.nCells == 0)
    assert(noCols.rows == Vector.fill(4)(Vector.empty[Int]))
    assert(noCols != Instance(Vector.empty, Vector.fill(3)(Vector.empty)))
    val noRows = Instance(Vector("A", "B"), Vector.empty)
    assert(noRows.arity == 2 && noRows.nRows == 0 && noRows.positions.isEmpty)
    assert(noRows.columns == Vector(ArraySeq.empty[Int], ArraySeq.empty[Int]))
    assert(Instance.encode(Seq("A", "B"), Seq.empty) == noRows)
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
    val e = Instance.encode(Seq("A"), Seq(Seq(null), Seq("x"), Seq(null), Seq("null"), Seq("\u0000null")))
    assert(e.rows(0)(0) == e.rows(2)(0))
    assert(e.rows(0)(0) != e.rows(1)(0))
    assert(e.rows(0)(0) != e.rows(3)(0))
    assert(e.rows(0)(0) != e.rows(4)(0))
  }

  test("encode keeps nested values apart that print alike") {
    val e = Instance.encode(Seq("A"), Seq(Seq(ArraySeq("a, b")), Seq(ArraySeq("a", "b")), Seq(ArraySeq("a, b"))))
    assert(e.rows.map(_(0)) == Vector(0, 1, 0))
  }

  test("fromDataFrame keys a BinaryType column by content") {
    val schema = StructType(Seq(StructField("id", LongType), StructField("b", BinaryType)))
    val rows = Seq(Row(0L, Array[Byte](7, 8)), Row(1L, Array[Byte](9)), Row(2L, Array[Byte](7, 8)))
    val inst = Instance.fromDataFrame(spark.createDataFrame(rows.asJava, schema), "id")
    assert(inst.rows.map(_(0)) == Vector(0, 1, 0))
  }

  test("fromDataFrame encodes DateType and TimestampType columns") {
    val schema = StructType(Seq(StructField("id", LongType), StructField("d", DateType), StructField("ts", TimestampType)))
    val (d1, d2) = (java.sql.Date.valueOf("1992-01-01"), java.sql.Date.valueOf("1998-08-02"))
    val (t1, t2) = (java.sql.Timestamp.valueOf("1992-01-01 00:00:00"), java.sql.Timestamp.valueOf("1992-01-01 00:00:01"))
    val rows = Seq(Row(0L, d1, t1), Row(1L, d2, t1), Row(2L, d1, t2))
    val inst = Instance.fromDataFrame(spark.createDataFrame(rows.asJava, schema), "id")
    assert(inst.attrs == Vector("d", "ts"))
    assert(inst.rows == Vector(Vector(0, 0), Vector(1, 0), Vector(0, 1)))
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

  private def frames: Seq[(String, DataFrame)] =
    Datasets.byName(spark).toSeq.sortBy(_._1) :+ ("cd" -> Datasets.cdCollection(spark))

  test("fromDataFrame equals the global-sort reference on the five mimics and the CD collection") {
    for ((name, df) <- frames)
      assert(Instance.fromDataFrame(df, "id") == TestGen.referenceFromDataFrame(df, "id"), name)
  }

  test("fromDataFrame equals the reference when rows arrive in reverse id order over 3 partitions") {
    for ((name, df) <- frames) {
      val reversed = spark.createDataFrame(spark.sparkContext.parallelize(df.collect().reverse.toSeq, 3), df.schema)
      assert(reversed.rdd.getNumPartitions == 3)
      val ids = reversed.collect().map(_.getLong(0)).toSeq
      assert(ids == ids.sorted.reverse, name)
      val inst = Instance.fromDataFrame(reversed, "id")
      assert(inst == TestGen.referenceFromDataFrame(reversed, "id"), name)
      assert(inst == Instance.fromDataFrame(df, "id"), name)
    }
  }

  test("fromDataFrame equals the reference with the id as the middle or the last column") {
    for ((name, df) <- frames.filter(f => Set("cd", "adult")(f._1))) {
      val data = df.columns.filterNot(_ == "id")
      val (front, back) = data.splitAt(data.length / 2)
      for (cols <- Seq(front ++ ("id" +: back), data :+ "id")) {
        val moved = df.select(cols.head, cols.tail.toSeq: _*)
        val inst = Instance.fromDataFrame(moved, "id")
        assert(inst == TestGen.referenceFromDataFrame(moved, "id"), s"$name: ${cols.mkString(", ")}")
        assert(inst == Instance.fromDataFrame(df, "id"), s"$name: ${cols.mkString(", ")}")
      }
    }
  }

  test("fromDataFrame reuses the DataFrame's own query execution across calls") {
    var reported = Vector.empty[QueryExecution]
    val listener = new QueryExecutionListener {
      // Only this test's frame has a column named planReuseId.
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = synchronized {
        if (qe.analyzed.output.exists(_.name == "planReuseId")) reported :+= qe
      }
      override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    val df = Datasets.adult(spark).withColumnRenamed("id", "planReuseId").cache()
    try {
      df.count()
      spark.listenerManager.register(listener)
      try {
        val (a, b) = (Instance.fromDataFrame(df, "planReuseId"), Instance.fromDataFrame(df, "planReuseId"))
        assert(a == b)
        val deadline = System.nanoTime() + 30000000000L
        while (listener.synchronized(reported.size < 2) && System.nanoTime() < deadline) Thread.sleep(10)
      } finally spark.listenerManager.unregister(listener)
    } finally df.unpersist()
    listener.synchronized {
      assert(reported.size == 2, s"${reported.size} query executions reported")
      // Both are `df.queryExecution` itself, so also each other; counted to keep plans out of the message.
      assert(reported.count(_ eq df.queryExecution) == 2, "calls that ran df's own query execution")
    }
  }

  test("fromDataFrame after unpersist reads the source and leaves no cached data behind") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet.toSet
    val df = Datasets.adult(spark).cache()
    df.count()
    // The first call fixes df's plan, which reads df's cache.
    val cached = Instance.fromDataFrame(df, "id")
    df.unpersist(blocking = true)
    assert(df.storageLevel == org.apache.spark.storage.StorageLevel.NONE)
    // The same plan runs again: it must not rebuild a cache outside the cache manager.
    assert(Instance.fromDataFrame(df, "id") == cached)
    assert(Instance.fromDataFrame(df, "id") == cached)
    val left = sc.getPersistentRDDs.keySet.toSet -- before
    assert(left.isEmpty, s"persisted RDDs left behind: $left")
  }

  test("fromDataFrame refuses a repeated or missing orderBy name and a repeated data name, before any job") {
    val schema = StructType(Seq("id", "u", "id", "v", "v").map(StructField(_, LongType)))
    // Collecting this frame fails with a SparkException, not an IllegalArgumentException.
    val rows = spark.sparkContext.parallelize(Seq(0, 1)).map[Row](_ => throw new IllegalStateException("collected"))
    val df = spark.createDataFrame(rows, schema)
    def msg(df: DataFrame, orderBy: String) =
      intercept[IllegalArgumentException](Instance.fromDataFrame(df, orderBy)).getMessage
    val twice = msg(df, "id")
    assert(twice.contains("'id'") && twice.contains("names 2 columns"), twice)
    val none = msg(df, "key")
    assert(none.contains("'key'") && none.contains("names 0 columns"), none)
    val data = msg(df.toDF("id", "u", "w", "v", "v"), "id")
    assert(data.contains("'v'") && data.contains("repeats"), data)
  }

  private def idFrame(idType: DataType, ids: Any*): DataFrame = {
    val schema = StructType(Seq(StructField("key", idType, nullable = true), StructField("u", StringType)))
    spark.createDataFrame(ids.zipWithIndex.map { case (id, j) => Row(id, s"v$j") }.asJava, schema)
  }

  private def refusal(df: DataFrame): String =
    intercept[IllegalArgumentException](Instance.fromDataFrame(df, "key")).getMessage

  test("fromDataFrame refuses a null id and names the column") {
    val msg = refusal(idFrame(LongType, 0L, null, 2L))
    assert(msg.contains("'key'") && msg.contains("null id"), msg)
  }

  test("fromDataFrame refuses a duplicate id and names the column and the value") {
    val msg = refusal(idFrame(LongType, 3L, 7L, 5L, 7L))
    assert(msg.contains("'key'") && msg.contains("duplicate id 7"), msg)
  }

  test("fromDataFrame refuses a string id and names the column and the type") {
    val msg = refusal(idFrame(StringType, "a", "b"))
    assert(msg.contains("'key'") && msg.contains("string"), msg)
  }

  test("fromDataFrame accepts every integral id type") {
    val expected = Instance.encode(Seq("u"), Seq(Seq("v1"), Seq("v2"), Seq("v0")))
    val cases = Seq(
      idFrame(ByteType, 9.toByte, -4.toByte, 0.toByte),
      idFrame(ShortType, 9.toShort, -4.toShort, 0.toShort),
      idFrame(IntegerType, 9, -4, 0),
      idFrame(LongType, 9L, -4L, 0L),
    )
    for (df <- cases) assert(Instance.fromDataFrame(df, "key") == expected, df.schema.head.dataType)
  }

  test("fromDataFrame runs one Spark job with no shuffle write on a cached mimic") {
    val group = "encode-one-job"
    var jobs = Vector.empty[Int]
    var stages = Set.empty[Int]
    var ended = 0
    var shuffleWrite = 0L
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
        if (Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == group)) {
          jobs :+= e.jobId
          stages ++= e.stageIds
        }
      }
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
        if (stages(e.stageInfo.stageId))
          shuffleWrite += e.stageInfo.taskMetrics.shuffleWriteMetrics.bytesWritten
      }
      override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
        if (jobs.contains(e.jobId)) ended += 1
      }
    }
    val sc = spark.sparkContext
    val df = Datasets.ncvoter(spark).cache()
    try {
      df.count()
      sc.addSparkListener(listener)
      try {
        sc.setJobGroup(group, "fromDataFrame")
        try Instance.fromDataFrame(df, "id")
        finally sc.clearJobGroup()
        val deadline = System.nanoTime() + 30000000000L
        while (listener.synchronized(ended < jobs.size || jobs.isEmpty) && System.nanoTime() < deadline)
          Thread.sleep(10)
      } finally sc.removeSparkListener(listener)
    } finally df.unpersist()
    listener.synchronized {
      assert(jobs.size == 1, s"jobs $jobs")
      assert(ended == 1)
      assert(shuffleWrite == 0L)
    }
  }
}
