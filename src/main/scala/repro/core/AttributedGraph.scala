package repro.core

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

/** An attributed graph (paper Def. 1) backed by two DataFrames.
  *
  * `nodes` must have columns `id: long`, `ntype: string`, plus one flat
  * column per attribute (nullable for node types that lack it).
  * `edges` must have columns `src: long`, `dst: long`, `etype: string`,
  * plus flat attribute columns. Edges are directed; the inverse relation
  * r^-1 is available implicitly (walkers may traverse edges backwards and
  * path steps may be declared `reversed`).
  *
  * This is the ingestion format only: everything after ingestion reads the
  * driver-side [[LocalGraph]] built from it, and only the Catalyst reference
  * evaluator ([[SparkEvaluator]]) reads the DataFrames.
  */
final case class AttributedGraph(nodes: DataFrame, edges: DataFrame) {
  require(Seq("id", "ntype").forall(nodes.columns.contains(_)),
    s"nodes needs id/ntype columns, got ${nodes.columns.mkString(",")}")
  require(Seq("src", "dst", "etype").forall(edges.columns.contains(_)),
    s"edges needs src/dst/etype columns, got ${edges.columns.mkString(",")}")
}

object AttributedGraph {
  /** Convenience constructor from in-memory tuples (tests / tiny graphs).
    * `nodeRows` = (id, ntype, attrs); `edgeRows` = (src, dst, etype, attrs).
    * A `null` value counts as absent. Each key with a value becomes a
    * nullable column: double if its values are numeric (any type
    * [[Attr.num]] reads), string otherwise. A key whose values mix numeric
    * and non-numeric types is rejected.
    */
  def fromTuples(
      spark: SparkSession,
      nodeRows: Seq[(Long, String, Map[String, Any])],
      edgeRows: Seq[(Long, Long, String, Map[String, Any])]): AttributedGraph = {

    /** One table: the structural columns `base`, then one attribute column
      * per key in sorted order.
      */
    def table(base: StructType, rows: Seq[(Seq[Any], Map[String, Any])]): DataFrame = {
      val isNum = mutable.TreeMap.empty[String, Boolean]
      for ((_, attrs) <- rows; (k, v) <- attrs if v != null) {
        val num = Attr.num(v).isDefined
        require(isNum.getOrElseUpdate(k, num) == num,
          s"attribute '$k' mixes numeric and non-numeric values")
      }
      val schema = isNum.foldLeft(base) { case (s, (k, num)) =>
        s.add(k, if (num) DoubleType else StringType, nullable = true)
      }
      val cells = rows.map { case (fixed, attrs) =>
        Row.fromSeq(fixed ++ isNum.iterator.map { case (k, num) =>
          attrs.get(k) match {
            case Some(v) if v != null => if (num) Double.box(Attr.num(v).get) else String.valueOf(v)
            case _                    => null
          }
        })
      }
      spark.createDataFrame(spark.sparkContext.parallelize(cells.toList), schema)
    }

    AttributedGraph(
      table(new StructType().add("id", LongType, false).add("ntype", StringType, false),
        nodeRows.map { case (id, t, m) => (Seq(id, t), m) }),
      table(new StructType().add("src", LongType, false).add("dst", LongType, false)
        .add("etype", StringType, false),
        edgeRows.map { case (s, d, t, m) => (Seq(s, d, t), m) }))
  }
}
