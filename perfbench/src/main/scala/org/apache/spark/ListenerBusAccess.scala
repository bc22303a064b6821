package org.apache.spark

/** Lets the benchmark wait until every queued listener event has been
  * delivered, so a trace snapshot taken after an operation is complete.
  * The listener bus is private to Spark; this object lives in its package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
