package repro.jobs

import repro.eval.Tables

/** Reproduces paper Tables 1–4. The arguments are the table numbers to print
  * (`TablesJob 1 3`); with none it prints all four. The datasets are built
  * once, and the Table 3/4 grid is computed at most once.
  */
object TablesJob {
  def main(args: Array[String]): Unit = {
    val tables = if (args.isEmpty) Seq(1, 2, 3, 4) else args.toSeq.map(_.toInt)
    require(tables.forall((1 to 4).contains), s"table numbers are 1-4, got ${args.mkString(" ")}")
    val cfg = Tables.config()
    val spark = JobSpark.session("tables")
    val graphs = try Tables.datasets(spark, cfg) finally spark.stop()
    lazy val grid = Tables.grid(graphs, cfg, progress = s => println(s"[grid] $s"))
    tables.foreach {
      case 1 => println(Tables.renderTable1(Tables.table1(graphs)))
      case 2 => println(Tables.renderTable2(Tables.table2(graphs.toMap.apply("DBLP"), cfg)))
      case 3 => println(Tables.renderTable3(grid))
      case 4 => println(Tables.renderTable4(grid))
    }
  }
}
