package perfbench

import org.scalatest.funsuite.AnyFunSuite

class CpuProbeSpec extends AnyFunSuite {

  test("the probe takes a positive time") {
    assert(CpuProbe.micros() > 0)
  }

  test("each operation's probe is the median of its neighbours, so one outlier is ignored") {
    val probes = Array.fill(20)(100.0)
    probes(10) = 5000.0
    assert(CpuProbe.local(probes).forall(_ == 100.0))
  }

  test("latencies scale by the reference over the local probe") {
    val ref = CpuProbe.ReferenceMicros
    val lat = Array.fill(12)(10.0)
    assert(CpuProbe.corrected(lat, Array.fill(12)(ref)).forall(_ == 10.0))
    // a CPU running 1.5 times slower: probe and operations both take 1.5x
    val slow = CpuProbe.corrected(lat.map(_ * 1.5), Array.fill(12)(ref * 1.5))
    slow.foreach(v => assert(math.abs(v - 10.0) < 1e-9))
  }

  test("one probe per operation is required") {
    assertThrows[IllegalArgumentException](CpuProbe.corrected(Array(1.0, 2.0), Array(1.0)))
  }
}
