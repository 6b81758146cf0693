// Network-tuning: the §2 story as an application. Sweeps the transport
// tuning ladder of Figure 5 (TCP datagram/connected modes, offload,
// interrupt pinning, RDMA) on the simulated InfiniBand fabric, then shows
// the effect of round-robin network scheduling on all-to-all shuffles
// (Figure 10(b)).
package main

import (
	"fmt"
	"log"
	"os"

	"hsqp"
)

func main() {
	for _, step := range []struct{ intro, id string }{
		{"transport tuning on simulated InfiniBand 4×QDR (Figure 5):", "fig5"},
		{"uncoordinated all-to-all vs round-robin scheduling (Figure 10(b)):", "fig10b"},
		{"message size vs scheduling synchronization cost (Figure 10(c)):", "fig10c"},
	} {
		fmt.Println(step.intro)
		if _, err := hsqp.RunExperiment(os.Stdout, step.id, hsqp.ExperimentOptions{}); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}
