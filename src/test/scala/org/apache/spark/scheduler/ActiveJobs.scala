package org.apache.spark.scheduler

import org.apache.spark.SparkContext

/** Ids of the jobs the DAG scheduler still holds. A job leaves this set
  * before its action returns or throws, whereas its end event reaches the
  * listener bus (and the status tracker) only afterwards; so tests that
  * check that no job outlives a call read the scheduler's own set from here.
  */
object ActiveJobs {
  def apply(sc: SparkContext): Set[Int] = sc.dagScheduler.activeJobs.map(_.jobId).toSet
}
