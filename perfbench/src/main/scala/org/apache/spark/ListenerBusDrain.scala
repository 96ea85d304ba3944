package org.apache.spark

/** Waits until every queued listener event has been delivered, so task
  * metrics read right after a Spark action are complete. The listener bus
  * is package-private to Spark, hence this one-line bridge.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
