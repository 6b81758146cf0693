package bench

import (
	"strings"
	"testing"
)

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.ID == "" || e.ID == "all" || e.Title == "" || e.Run == nil {
			t.Errorf("malformed registry entry %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestCheapExperimentsRun runs the registry entries that need no cluster
// and checks their headline metrics.
func TestCheapExperimentsRun(t *testing.T) {
	for id, units := range map[string][]string{
		"table1": nil,
		"fig4":   nil,
		"fig6":   nil,
		"fig8":   {"bytes-per-row", "roundtrip-MB/s"},
	} {
		e, err := Experiments.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		m, err := e.Run(&out, Options{SF: 0.002})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s printed nothing", id)
		}
		for _, u := range units {
			if m[u] <= 0 {
				t.Errorf("%s: metric %s = %v", id, u, m[u])
			}
		}
	}
}
