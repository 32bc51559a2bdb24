package perfbench

/** Order statistics for latency reporting.
  *
  * Percentiles use the nearest-rank definition on sorted values, so a
  * reported percentile is always one measured operation. A percentile q of
  * n values is only reported when at least [[MinBeyond]] values lie beyond
  * it, so p99 needs n >= 1000.
  */
object Quantiles {

  val MinBeyond = 10

  /** Nearest-rank q-quantile (0 < q <= 1) of ascending `sorted`. */
  def percentile(sorted: Array[Double], q: Double): Double = {
    require(sorted.nonEmpty, "percentile of no values")
    require(q > 0 && q <= 1, s"quantile out of range: $q")
    sorted(rank(sorted.length, q) - 1)
  }

  /** 1-based nearest rank of quantile q among n values. */
  def rank(n: Int, q: Double): Int =
    math.max(1, math.ceil(q * n - 1e-9).toInt)

  /** How many of n values lie strictly beyond the q-quantile's rank. */
  def beyond(n: Int, q: Double): Int = n - rank(n, q)

  /** True when quantile q of n values has at least [[MinBeyond]] values beyond it. */
  def supported(n: Int, q: Double): Boolean = beyond(n, q) >= MinBeyond

  /** Smallest n for which quantile q is [[supported]]. */
  def minCount(q: Double): Int = {
    var n = 1
    while (!supported(n, q)) n += 1
    n
  }

  def median(values: Array[Double]): Double = {
    require(values.nonEmpty, "median of no values")
    val s = values.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  def mean(values: Array[Double]): Double =
    if (values.isEmpty) 0.0 else values.sum / values.length
}
