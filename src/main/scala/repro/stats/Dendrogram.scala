package repro.stats

/** Single-linkage agglomerative clustering over a symmetric distance matrix.
  *
  * Substrate for the missing-value dendrogram (plot_missing(df)): missingno
  * clusters columns by how similarly their values are missing. The distance
  * here is the nullity-disagreement fraction between two columns, derived
  * from the same nullity sums that feed the nullity correlation heatmap.
  */
object Dendrogram {

  /** One merge step: the two cluster ids joined, the linkage distance, and
    * the size of the resulting cluster. Leaves are ids 0..m-1; the cluster
    * created by merge k gets id m+k (scipy linkage-matrix convention).
    */
  final case class Merge(left: Int, right: Int, distance: Double, size: Int)

  /** Run single-linkage clustering. `labels.size` must equal the matrix
    * dimension; returns labels.size - 1 merges in nondecreasing distance.
    */
  def singleLinkage(labels: Seq[String], dist: Array[Array[Double]]): Seq[Merge] = {
    val m = labels.size
    require(dist.length == m && dist.forall(_.length == m),
      s"dendrogram: need ${m}x$m distance matrix")
    if (m < 2) return Seq.empty

    // active clusters: id -> (member leaves, size)
    var nextId = m
    val members = scala.collection.mutable.Map[Int, Set[Int]]()
    (0 until m).foreach(i => members(i) = Set(i))
    val merges = scala.collection.mutable.ArrayBuffer[Merge]()

    def clusterDist(a: Set[Int], b: Set[Int]): Double =
      (for (i <- a; j <- b) yield dist(i)(j)).min

    while (members.size > 1) {
      val ids = members.keys.toSeq.sorted
      var best = (ids(0), ids(1), Double.MaxValue)
      for (ai <- ids.indices; bi <- ai + 1 until ids.size) {
        val d = clusterDist(members(ids(ai)), members(ids(bi)))
        if (d < best._3) best = (ids(ai), ids(bi), d)
      }
      val (a, b, d) = best
      val merged = members(a) ++ members(b)
      members -= a; members -= b
      members(nextId) = merged
      merges += Merge(a, b, d, merged.size)
      nextId += 1
    }
    merges.toSeq
  }
}
