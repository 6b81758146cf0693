package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hsqp/internal/memory"
	"hsqp/internal/mux"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.9, 7},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.9, 3.7},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 0.9, 100},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestCounterDeltas(t *testing.T) {
	before := counters{
		mux:         mux.Stats{MsgsSent: 10, LocalMsgs: 4, SyncBarriers: 1},
		pool:        memory.PoolStats{Allocated: 3, Recycled: 7},
		fabBytes:    1000,
		tcpSegments: 5, tcpCPU: 0.5,
		obs:     map[string]float64{"a": 1, "b": 2},
		runtime: map[string]float64{"r": 10},
	}
	after := counters{
		mux:         mux.Stats{MsgsSent: 25, LocalMsgs: 4, SyncBarriers: 6},
		pool:        memory.PoolStats{Allocated: 3, Recycled: 17},
		fabBytes:    4000,
		tcpSegments: 9, tcpCPU: 1.25,
		obs:     map[string]float64{"a": 4, "b": 2},
		runtime: map[string]float64{"r": 15},
	}
	d := after.sub(before)
	if d.mux.MsgsSent != 15 || d.mux.LocalMsgs != 0 || d.mux.SyncBarriers != 5 {
		t.Errorf("mux delta = %+v", d.mux)
	}
	if d.pool.Allocated != 0 || d.pool.Recycled != 10 || d.fabBytes != 3000 {
		t.Errorf("pool/fabric delta = %+v %d", d.pool, d.fabBytes)
	}
	if d.tcpSegments != 4 || math.Abs(d.tcpCPU-0.75) > 1e-12 {
		t.Errorf("tcp delta = %d %v", d.tcpSegments, d.tcpCPU)
	}
	if d.obs["a"] != 3 || d.obs["b"] != 0 || d.runtime["r"] != 5 {
		t.Errorf("map deltas = %v %v", d.obs, d.runtime)
	}

	// Accumulating two slices' deltas, starting from the zero value.
	var acc counters
	acc = acc.add(d).add(d)
	if acc.mux.MsgsSent != 30 || acc.fabBytes != 6000 || acc.obs["a"] != 6 || acc.runtime["r"] != 10 {
		t.Errorf("accumulated = %+v", acc)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []spanRec{
		{ID: 1, Name: "root", Cat: "bench", Start: 0, End: ms(100)},
		// Overlapping children cover [10,50) once; the third sticks out
		// past the parent and only [90,100) counts.
		{ID: 2, Parent: 1, Name: "a", Cat: "bench", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Cat: "bench", Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 1, Name: "c", Cat: "pipeline", Start: ms(90), End: ms(120)},
		{ID: 5, Parent: 3, Name: "d", Cat: "bench", Start: ms(25), End: ms(35)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(50), 2: ms(20), 3: ms(20), 4: ms(30), 5: ms(10)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	sum := summarize(spans)
	if len(sum) != 4 || sum[0].Name != "root" || sum[0].Self != ms(50) {
		t.Errorf("summary = %+v (program spans must not be summarized)", sum)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				dir := t.TempDir()
				var out bytes.Buffer
				// SF 0.01 is the smallest scale at which the generator keeps
				// partsupp's (partkey, suppkey) key unique; below it q9
				// differs from the reference (see README.md).
				o := options{workload: w.Name, seed: 7, seconds: 0.2, trace: traced,
					sf: 0.01, setups: 1, minOps: 10, traceDir: dir}
				correct, err := run(o, &out)
				if err != nil {
					t.Fatal(err)
				}
				text := out.String()
				if !correct || !strings.Contains(text, "failed=0 failed_frac=0.0000") {
					t.Fatalf("run was not correct:\n%s", text)
				}
				lines := strings.Split(strings.TrimSpace(text), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if res.Failed != 0 || res.Attempted < o.minOps {
					t.Errorf("attempted=%d failed=%d", res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if !strings.Contains(text, "  "+m.Name+" ") {
						t.Errorf("metric %s missing from the printed report", m.Name)
					}
				}
				if traced {
					checkTraceFile(t, filepath.Join(dir, fmt.Sprintf("trace-%s-seed7.json", w.Name)), w.Name != "served-mix")
				}
			})
		}
	}
}

// checkTraceFile asserts the Chrome trace holds the benchmark's layer
// spans and, for direct cluster runs, the program's query spans.
func checkTraceFile(t *testing.T, path string, wantProgram bool) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct{ Name, Cat string }
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	names, cats := map[string]bool{}, map[string]bool{}
	for _, e := range tr.TraceEvents {
		names[e.Name] = true
		cats[e.Cat] = true
	}
	for _, n := range []string{"bench.setup", "tpch.generate", "cluster.warmup", "bench.verify"} {
		if !names[n] {
			t.Errorf("trace lacks span %s", n)
		}
	}
	if wantProgram && (!names["cluster.run"] || !cats["compile"] || !cats["pipeline"]) {
		t.Errorf("trace lacks the cluster.run span or the program's query spans (categories %v)", cats)
	}
}
