// Distributed-join: shows how data placement and join strategy shape
// network traffic — the §4.1/§4.3 story. The same join (TPC-H Q12:
// lineitem ⨝ orders) runs under chunked placement (every join shuffles)
// and partitioned placement (orderkey joins are co-located and ship
// almost nothing), and the plan is printed with its strategies.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"hsqp"
)

func main() {
	const sf = 0.02
	db := hsqp.GenerateTPCH(sf, 42)

	fmt.Println("plan for TPC-H Q12 (join strategies chosen by the optimizer):")
	fmt.Println(hsqp.ExplainQuery(hsqp.TPCHQuery(12, sf)))

	for _, partitioned := range []bool{false, true} {
		c, err := hsqp.NewCluster(hsqp.ClusterConfig{
			Servers:          4,
			WorkersPerServer: 3,
			Transport:        hsqp.RDMA,
			Scheduling:       true,
		})
		if err != nil {
			log.Fatal(err)
		}
		c.LoadTPCH(db, partitioned)
		res, stats, err := c.RunContext(context.Background(), hsqp.TPCHQuery(12, sf))
		if err != nil {
			c.Close()
			log.Fatal(err)
		}
		placement := "chunked    "
		if partitioned {
			placement = "partitioned"
		}
		fmt.Printf("%s placement: %2d result rows in %8v — %8d wire bytes in %3d wire messages\n",
			placement, res.Rows(), stats.Duration, stats.WireBytes(), stats.WireMessages())
		c.Close()
	}
	fmt.Fprintln(os.Stdout, "\npartitioned placement co-locates the l_orderkey ⨝ o_orderkey join,")
	fmt.Fprintln(os.Stdout, "so only the small group-by shuffle and the final gather cross the wire.")
}
