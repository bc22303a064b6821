package repro.stats

import org.scalatest.funsuite.AnyFunSuite

class DendrogramSpec extends AnyFunSuite {
  import Dendrogram._

  private def mat(entries: (Int, Int, Double)*)(m: Int): Array[Array[Double]] = {
    val d = Array.ofDim[Double](m, m)
    entries.foreach { case (i, j, v) => d(i)(j) = v; d(j)(i) = v }
    d
  }

  /** Flat clusters obtained by cutting the dendrogram at `threshold`.
    * Single-linkage merge distances are nondecreasing, so the cut applies
    * the longest prefix of merges whose distance is <= threshold.
    */
  private def cut(m: Int, merges: Seq[Merge], threshold: Double): Seq[Set[Int]] = {
    val clusters = scala.collection.mutable.Map[Int, Set[Int]]()
    (0 until m).foreach(i => clusters(i) = Set(i))
    var nextId = m
    merges.takeWhile(_.distance <= threshold).foreach { mg =>
      clusters(nextId) = clusters(mg.left) ++ clusters(mg.right)
      clusters -= mg.left; clusters -= mg.right
      nextId += 1
    }
    clusters.values.toSeq
  }

  test("two leaves merge at their distance") {
    val merges = singleLinkage(Seq("a", "b"), mat((0, 1, 0.3))(2))
    assert(merges == Seq(Merge(0, 1, 0.3, 2)))
  }

  test("closest pair merges first") {
    val d = mat((0, 1, 0.9), (0, 2, 0.1), (1, 2, 0.5))(3)
    val merges = singleLinkage(Seq("a", "b", "c"), d)
    assert(merges.head.left == 0 && merges.head.right == 2 && merges.head.distance == 0.1)
    // single linkage: dist({a,c}, b) = min(0.9, 0.5) = 0.5
    assert(merges(1).distance == 0.5)
    assert(merges(1).size == 3)
  }

  test("merge distances are nondecreasing") {
    val d = mat((0, 1, 0.4), (0, 2, 0.2), (0, 3, 0.7), (1, 2, 0.9),
      (1, 3, 0.3), (2, 3, 0.8))(4)
    val merges = singleLinkage(Seq("a", "b", "c", "d"), d)
    assert(merges.size == 3)
    assert(merges.sliding(2).forall(p => p(0).distance <= p(1).distance))
  }

  test("cluster ids follow the scipy convention (new id = m + step)") {
    val d = mat((0, 1, 0.1), (0, 2, 0.5), (1, 2, 0.6))(3)
    val merges = singleLinkage(Seq("a", "b", "c"), d)
    // first merge joins leaves 0,1 -> cluster 3; second joins 3 with leaf 2
    assert(merges(0) == Merge(0, 1, 0.1, 2))
    assert(Set(merges(1).left, merges(1).right) == Set(2, 3))
  }

  test("zero-distance columns cluster immediately") {
    val d = mat((0, 1, 0.0), (0, 2, 0.4), (1, 2, 0.4))(3)
    val merges = singleLinkage(Seq("a", "b", "c"), d)
    assert(merges.head.distance == 0.0)
  }

  test("single leaf produces no merges") {
    assert(singleLinkage(Seq("a"), Array(Array(0.0))).isEmpty)
  }

  test("mismatched matrix size is rejected") {
    intercept[IllegalArgumentException](singleLinkage(Seq("a", "b"), Array(Array(0.0))))
  }

  test("cut at 0 keeps singletons apart when all distances positive") {
    val d = mat((0, 1, 0.2), (0, 2, 0.5), (1, 2, 0.4))(3)
    val merges = singleLinkage(Seq("a", "b", "c"), d)
    val clusters = cut(3, merges, 0.0)
    assert(clusters.size == 3)
  }

  test("cut at max distance yields one cluster") {
    val d = mat((0, 1, 0.2), (0, 2, 0.5), (1, 2, 0.4))(3)
    val merges = singleLinkage(Seq("a", "b", "c"), d)
    val clusters = cut(3, merges, 1.0)
    assert(clusters.size == 1 && clusters.head == Set(0, 1, 2))
  }

  test("cut at intermediate threshold splits correctly") {
    val d = mat((0, 1, 0.1), (2, 3, 0.15), (0, 2, 0.9), (0, 3, 0.9), (1, 2, 0.9), (1, 3, 0.9))(4)
    val merges = singleLinkage(Seq("a", "b", "c", "d"), d)
    val clusters = cut(4, merges, 0.5).map(_.toSeq.sorted)
    assert(clusters.toSet == Set(Seq(0, 1), Seq(2, 3)))
  }
}
