package org.apache.spark

/** Waits until every queued listener event has been delivered — Spark keeps
  * its listener bus private, so tests that count jobs reach it from here.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
