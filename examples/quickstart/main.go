// Quickstart: bring up a simulated 3-server cluster, load TPC-H, run Q1
// and print the pricing summary — the smallest end-to-end use of the
// public API.
package main

import (
	"context"
	"fmt"
	"log"

	"hsqp"
	"hsqp/internal/storage"
)

func main() {
	c, err := hsqp.NewCluster(hsqp.ClusterConfig{
		Servers:          3,
		WorkersPerServer: 4,
		Transport:        hsqp.RDMA,
		Scheduling:       true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	const sf = 0.01
	fmt.Printf("generating TPC-H SF %g and loading it chunked over %d servers…\n", sf, 3)
	c.LoadTPCH(hsqp.GenerateTPCH(sf, 42), false)

	q := hsqp.TPCHQuery(1, sf)
	res, stats, err := c.RunContext(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTPC-H Q1 — pricing summary report (%d rows, %v):\n\n", res.Rows(), stats.Duration)
	fmt.Printf("%-3s %-3s %14s %16s %16s %10s\n",
		"rf", "ls", "sum_qty", "sum_base_price", "sum_disc_price", "count")
	for i := 0; i < res.Rows(); i++ {
		fmt.Printf("%-3s %-3s %14.2f %16.2f %16.2f %10d\n",
			res.Cols[0].Str[i],
			res.Cols[1].Str[i],
			storage.DecimalFloat(res.Cols[2].I64[i]),
			storage.DecimalFloat(res.Cols[3].I64[i]),
			storage.DecimalFloat(res.Cols[4].I64[i]),
			res.Cols[9].I64[i],
		)
	}
	fmt.Printf("\nnetwork: %d wire messages, %d wire bytes (loopback partitions included)\n",
		stats.WireMessages(), stats.WireBytes())
}
