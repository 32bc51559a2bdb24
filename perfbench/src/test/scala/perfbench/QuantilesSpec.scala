package perfbench

import org.scalatest.funsuite.AnyFunSuite

class QuantilesSpec extends AnyFunSuite {

  private val oneToHundred = Array.tabulate(100)(i => (i + 1).toDouble)

  test("nearest-rank percentile returns a measured value") {
    assert(Quantiles.percentile(oneToHundred, 0.5) == 50.0)
    assert(Quantiles.percentile(oneToHundred, 0.99) == 99.0)
    assert(Quantiles.percentile(oneToHundred, 1.0) == 100.0)
    assert(Quantiles.percentile(Array(7.0), 0.5) == 7.0)
  }

  test("percentile rejects empty input and out-of-range quantiles") {
    assertThrows[IllegalArgumentException](Quantiles.percentile(Array.empty[Double], 0.5))
    assertThrows[IllegalArgumentException](Quantiles.percentile(oneToHundred, 0.0))
    assertThrows[IllegalArgumentException](Quantiles.percentile(oneToHundred, 1.5))
  }

  test("p99 needs at least ten values beyond it: 1000 values") {
    assert(Quantiles.beyond(1000, 0.99) == 10)
    assert(Quantiles.supported(1000, 0.99))
    assert(!Quantiles.supported(999, 0.99))
    assert(Quantiles.minCount(0.99) == 1000)
    assert(Quantiles.minCount(0.95) == 200)
    assert(Quantiles.minCount(0.5) == 20)
  }

  test("median of odd and even counts") {
    assert(Quantiles.median(Array(3.0, 1.0, 2.0)) == 2.0)
    assert(Quantiles.median(Array(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }
}
