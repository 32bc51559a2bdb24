package perfbench

/** A fixed computation, timed right after every measured operation, that
  * reads how fast the CPU runs at that moment.
  *
  * On a shared host the CPU runs up to about 1.5 times slower for seconds
  * to minutes at a time while other tenants load it, and a whole run can
  * fall into a slow spell. Thread CPU time slows down as much as wall time,
  * so it is not time the VM is descheduled. Branchy integer code like this
  * probe (hashing with linear probing, then a sort) slows down by the same
  * factor as the program's operations, segment by segment through a run;
  * memory-bound loops, a pointer chase or a streaming sum, hardly move.
  * The probe allocates nothing, so the program's garbage never triggers a
  * collection inside it, and it shares no code with the program, so a
  * change to the program cannot change it.
  */
object CpuProbe {

  /** Probe time the corrected latencies are scaled to: about its median on
    * the 4-CPU Xeon VM the benchmark was tuned on, where run medians ranged
    * from 250 to 360 us.
    */
  val ReferenceMicros = 300.0

  /** Neighbours on each side whose probes are pooled for one operation. */
  val Half = 4

  private val keys = new Array[Int](2048)
  private val vals = new Array[Int](2048)
  private val src = Array.tabulate(4000)(k => ((k * 2654435761L) % 100003).toInt)
  private val buf = new Array[Int](4000)
  @volatile private var sink = 0L

  /** Runs the probe once; returns its wall time in microseconds. */
  def micros(): Double = {
    val t0 = System.nanoTime()
    java.util.Arrays.fill(keys, -1)
    var i = 0
    var x = 12345
    var s = 0L
    while (i < 6000) {
      x = x * 1103515245 + 12345
      val k = (x >>> 16) & 1023
      var h = (k * 0x9E3779B9) >>> 21
      while (keys(h) != -1 && keys(h) != k) h = (h + 1) & 2047
      if (i < 3000) { keys(h) = k; vals(h) = i }
      else if (keys(h) == k) s += vals(h)
      i += 1
    }
    System.arraycopy(src, 0, buf, 0, src.length)
    java.util.Arrays.sort(buf)
    sink ^= s + buf(7)
    (System.nanoTime() - t0) / 1e3
  }

  /** For each operation, the median of the probes within [[Half]]
    * operations of it, so one disturbed probe does not move its correction.
    */
  def local(probeUs: Array[Double]): Array[Double] =
    Array.tabulate(probeUs.length) { i =>
      Quantiles.median(probeUs.slice(math.max(0, i - Half), i + Half + 1))
    }

  /** Latencies scaled to the CPU speed at which the probe takes
    * [[ReferenceMicros]]: each one times ReferenceMicros / its local probe.
    */
  def corrected(latMs: Array[Double], probeUs: Array[Double]): Array[Double] = {
    require(latMs.length == probeUs.length, "one probe per operation")
    val p = local(probeUs)
    Array.tabulate(latMs.length)(i => latMs(i) * ReferenceMicros / p(i))
  }
}
