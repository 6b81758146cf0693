package hsqp

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"hsqp/internal/bench"
)

// TestFacadeEndToEnd exercises the public API exactly as the README shows.
func TestFacadeEndToEnd(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Servers:          2,
		WorkersPerServer: 2,
		Transport:        RDMA,
		Scheduling:       true,
		TimeScale:        0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.LoadTPCH(GenerateTPCH(0.005, 42), false)

	res, stats, err := c.RunContext(context.Background(), TPCHQuery(6, 0.005))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 1 || res.Cols[0].I64[0] <= 0 {
		t.Fatalf("Q6 result: %v", res.Row(0))
	}
	if stats.Duration <= 0 {
		t.Fatal("no duration measured")
	}
	if out := ExplainQuery(TPCHQuery(17, 1)); !strings.Contains(out, "groupjoin") {
		t.Fatalf("explain: %s", out)
	}
	var buf bytes.Buffer
	if _, err := RunExperiment(&buf, "table1", ExperimentOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "IB 4xQDR") {
		t.Fatal("Table 1 output incomplete")
	}
	if TwoSocketTopology().Sockets != 2 || FourSocketTopology().Sockets != 4 {
		t.Fatal("topology helpers broken")
	}
}

// TestExperimentMapCoversRegistry keeps the README's experiment map in
// step with the registry: every experiment id appears in it.
func TestExperimentMapCoversRegistry(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "## Experiment → figure map")
	if !ok {
		t.Fatal("README has no experiment map section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for _, id := range bench.Experiments.IDs() {
		if !strings.Contains(section, "`"+id+"`") {
			t.Errorf("experiment %q missing from the README experiment map", id)
		}
	}
}
