package repro.core

/** Self-contained statistics for the hypothesis-testing step (framework
  * Figure 2: "acceptance or rejection result, p-value, and confidence
  * interval"). No external math library is available offline, so the
  * Student-t machinery (log-gamma, regularized incomplete beta by continued
  * fraction, CDF inversion by bisection) is implemented here and verified
  * against known quantiles in `StatsSpec`.
  */
object Stats {

  /** Lanczos approximation of log Γ(x), x > 0. */
  def logGamma(x: Double): Double = {
    require(x > 0, s"logGamma domain: $x")
    val g = 7.0
    val coef = Array(
      0.99999999999980993, 676.5203681218851, -1259.1392167224028,
      771.32342877765313, -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)
    if (x < 0.5) {
      // Reflection formula.
      math.log(math.Pi / math.sin(math.Pi * x)) - logGamma(1.0 - x)
    } else {
      val z = x - 1.0
      var a = coef(0)
      val t = z + g + 0.5
      var i = 1
      while (i < coef.length) { a += coef(i) / (z + i); i += 1 }
      0.5 * math.log(2 * math.Pi) + (z + 0.5) * math.log(t) - t + math.log(a)
    }
  }

  /** Continued-fraction kernel for the incomplete beta (Numerical Recipes betacf). */
  private def betacf(a: Double, b: Double, x: Double): Double = {
    val MaxIter = 300
    val Eps = 3e-14
    val FpMin = 1e-300
    val qab = a + b; val qap = a + 1.0; val qam = a - 1.0
    var c = 1.0
    var d = 1.0 - qab * x / qap
    if (math.abs(d) < FpMin) d = FpMin
    d = 1.0 / d
    var h = d
    var m = 1
    var done = false
    while (m <= MaxIter && !done) {
      val m2 = 2 * m
      var aa = m * (b - m) * x / ((qam + m2) * (a + m2))
      d = 1.0 + aa * d; if (math.abs(d) < FpMin) d = FpMin
      c = 1.0 + aa / c; if (math.abs(c) < FpMin) c = FpMin
      d = 1.0 / d
      h *= d * c
      aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
      d = 1.0 + aa * d; if (math.abs(d) < FpMin) d = FpMin
      c = 1.0 + aa / c; if (math.abs(c) < FpMin) c = FpMin
      d = 1.0 / d
      val del = d * c
      h *= del
      if (math.abs(del - 1.0) < Eps) done = true
      m += 1
    }
    h
  }

  /** Regularized incomplete beta I_x(a, b). */
  def regIncBeta(a: Double, b: Double, x: Double): Double = {
    require(a > 0 && b > 0, s"beta params: $a, $b")
    if (x <= 0) 0.0
    else if (x >= 1) 1.0
    else {
      val lbeta = logGamma(a + b) - logGamma(a) - logGamma(b) +
        a * math.log(x) + b * math.log(1.0 - x)
      val front = math.exp(lbeta)
      if (x < (a + 1.0) / (a + b + 2.0)) front * betacf(a, b, x) / a
      else 1.0 - math.exp(
        logGamma(a + b) - logGamma(a) - logGamma(b) +
          b * math.log(1.0 - x) + a * math.log(x)) * betacf(b, a, 1.0 - x) / b
    }
  }

  /** Student-t CDF P(T_df <= t). */
  def tCdf(t: Double, df: Double): Double = {
    require(df > 0, s"df: $df")
    if (t.isNaN) Double.NaN
    else if (t.isPosInfinity) 1.0
    else if (t.isNegInfinity) 0.0
    else {
      val x = df / (df + t * t)
      val p = 0.5 * regIncBeta(df / 2.0, 0.5, x)
      if (t >= 0) 1.0 - p else p
    }
  }

  /** Student-t quantile: t such that P(T_df <= t) = p, by bisection. It
    * stops once the midpoint equals an end: lo and hi are then adjacent
    * doubles that further halving cannot move, so the result is the one the
    * full 200 halvings give, at about a third of the CDF evaluations.
    */
  def tQuantile(p: Double, df: Double): Double = {
    require(p > 0 && p < 1, s"p: $p")
    var lo = -1e4
    var hi = 1e4
    var mid = 0.0
    var i = 0
    while (i < 200 && mid != lo && mid != hi) {
      if (tCdf(mid, df) < p) lo = mid else hi = mid
      mid = 0.5 * (lo + hi)
      i += 1
    }
    mid
  }

  /** Σ values, added left to right starting from the first element: the
    * rounding of the collections' `values.sum`, without boxing. 0 if empty.
    */
  def sum(values: Array[Double]): Double =
    if (values.isEmpty) 0.0
    else {
      var s = values(0)
      var i = 1
      while (i < values.length) { s += values(i); i += 1 }
      s
    }

  /** One-sample t-test outcome for a hypothesis mean against constant c. */
  final case class TTest(
      n: Int,
      mean: Double,
      sd: Double,
      stderr: Double,
      tStat: Double,
      pValue: Double,
      ciLow: Double,
      ciHigh: Double)

  /** One-sample t-test of `values` against `c` with alternative given by
    * `op` (Gt: mean > c; Lt: mean < c; Eq/Ne: two-sided). Also returns the
    * 1-alpha confidence interval on the mean. Degenerate inputs (n < 2 or
    * zero variance) yield a point CI and a 0/1 p-value by direct comparison.
    */
  def tTest(values: Array[Double], c: Double, op: CmpOp, alpha: Double = 0.05): TTest = {
    require(values.nonEmpty, "t-test needs at least one value")
    val n = values.length
    val mean = sum(values) / n
    var ss = 0.0
    var i = 0
    while (i < n) { ss += (values(i) - mean) * (values(i) - mean); i += 1 }
    val variance = if (n < 2) 0.0 else ss / (n - 1)
    val sd = math.sqrt(variance)
    val se = sd / math.sqrt(n.toDouble)

    if (n < 2 || se == 0.0) {
      val pv = op match {
        case CmpOp.Gt => if (mean > c) 0.0 else 1.0
        case CmpOp.Lt => if (mean < c) 0.0 else 1.0
        case _        => if (math.abs(mean - c) <= 1e-9) 1.0 else 0.0
      }
      val t = if (mean > c) Double.PositiveInfinity
              else if (mean < c) Double.NegativeInfinity else 0.0
      TTest(n, mean, sd, 0.0, t, pv, mean, mean)
    } else {
      val df = (n - 1).toDouble
      val t = (mean - c) / se
      val pv = op match {
        case CmpOp.Gt => 1.0 - tCdf(t, df)
        case CmpOp.Lt => tCdf(t, df)
        case _        => 2.0 * (1.0 - tCdf(math.abs(t), df))
      }
      val tq = tQuantile(1.0 - alpha / 2.0, df)
      TTest(n, mean, sd, se, t, pv, mean - tq * se, mean + tq * se)
    }
  }
}
