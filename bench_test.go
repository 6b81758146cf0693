// Package hsqp's benchmark harness. BenchmarkExperiment regenerates every
// table and figure of the experiment registry (internal/bench.Experiments)
// at its default, scaled-down parameters, printing the table with -v and
// reporting the entry's headline metrics; cmd/hsqp `experiment -id <x>
// -full` runs the full grids. The remaining benchmarks measure the engine
// itself.
package hsqp

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"hsqp/internal/bench"
	"hsqp/internal/cluster"
	"hsqp/internal/obs"
	"hsqp/internal/queries"
)

// BenchmarkExperiment runs each registered experiment as a sub-benchmark
// named by its id, e.g. -bench 'BenchmarkExperiment/(throughput|serving)'.
// CI tracks the throughput and serving metrics in BENCH_<n>.json.
func BenchmarkExperiment(b *testing.B) {
	bench.Warmup()
	for _, e := range bench.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			var buf bytes.Buffer
			var metrics map[string]float64
			for i := 0; i < b.N; i++ {
				buf.Reset()
				m, err := e.Run(&buf, bench.Options{})
				if err != nil {
					b.Fatal(err)
				}
				metrics = m
			}
			b.Log("\n" + buf.String())
			for unit, v := range metrics {
				b.ReportMetric(v, unit)
			}
		})
	}
}

// BenchmarkDAGvsSerial measures the compute/communication overlap win of
// the pipeline-DAG scheduler against the old ordered-pipeline-list
// execution on one distributed TPC-H join query (Q12). The dag case
// reports the measured overlap ratio and peak pipeline concurrency.
func BenchmarkDAGvsSerial(b *testing.B) {
	bench.Warmup()
	for _, mode := range []struct {
		name   string
		serial bool
	}{{"serial", true}, {"dag", false}} {
		b.Run(mode.name, func(b *testing.B) {
			c, err := cluster.New(cluster.Config{
				Servers:          3,
				WorkersPerServer: 4,
				Transport:        cluster.RDMA,
				Scheduling:       true,
				Serial:           mode.serial,
				TimeScale:        cluster.DefaultTimeScale,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			c.LoadTPCH(bench.DB(0.05, 42), false)
			q := queries.MustBuild(12, queries.Params{SF: 0.05})
			b.ResetTimer()
			var overlap float64
			var concurrent int
			for i := 0; i < b.N; i++ {
				_, stats, err := c.RunContext(context.Background(), q)
				if err != nil {
					b.Fatal(err)
				}
				if o := stats.MaxOverlap(); o > overlap {
					overlap = o
				}
				if cc := stats.PeakConcurrentPipelines(); cc > concurrent {
					concurrent = cc
				}
			}
			b.ReportMetric(overlap, "overlap-ratio")
			b.ReportMetric(float64(concurrent), "peak-pipelines")
		})
	}
}

// BenchmarkSingleQuery measures one distributed TPC-H query end to end:
// the building block of every engine experiment.
func BenchmarkSingleQuery(b *testing.B) {
	bench.Warmup()
	c, err := cluster.New(cluster.Config{
		Servers:          3,
		WorkersPerServer: 4,
		Transport:        cluster.RDMA,
		Scheduling:       true,
		TimeScale:        cluster.DefaultTimeScale,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.LoadTPCH(bench.DB(0.05, 42), false)
	q := queries.MustBuild(5, queries.Params{SF: 0.05})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.RunContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusedHotPath measures the single-pass fused operator path
// against the one-materialization-per-operator ablation on the two
// select/map-heavy TPC-H plans (Q1: select+map before a wide aggregate;
// Q12: selective filters feeding a join). Single server takes the network
// out of the measurement; allocs/op shows the scratch-pooling win.
func BenchmarkFusedHotPath(b *testing.B) {
	bench.Warmup()
	for _, qn := range []int{1, 12} {
		for _, mode := range []struct {
			name   string
			nofuse bool
		}{{"fused", false}, {"nofuse", true}} {
			b.Run(fmt.Sprintf("q%02d/%s", qn, mode.name), func(b *testing.B) {
				c, err := cluster.New(cluster.Config{
					Servers:          1,
					WorkersPerServer: 4,
					Transport:        cluster.RDMA,
					Scheduling:       true,
					TimeScale:        cluster.DefaultTimeScale,
					NoFuse:           mode.nofuse,
					NoPushdown:       mode.nofuse,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				c.LoadTPCH(bench.DB(0.05, 42), false)
				q := queries.MustBuild(qn, queries.Params{SF: 0.05})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := c.RunContext(context.Background(), q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkObsOverhead measures the cost of the always-on observability
// instrumentation (metric updates on the morsel/exchange hot paths plus
// trace assembly) by running the same distributed Q12 with instrumentation
// enabled and disabled, interleaved to cancel thermal/GC drift. CI's
// bench-smoke job tracks obs-overhead-ratio; the acceptance bar is ≤ 1.02
// (instrumented within 2% of the -noobs ablation).
func BenchmarkObsOverhead(b *testing.B) {
	bench.Warmup()
	c, err := cluster.New(cluster.Config{
		Servers:          3,
		WorkersPerServer: 4,
		Transport:        cluster.RDMA,
		Scheduling:       true,
		TimeScale:        cluster.DefaultTimeScale,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.LoadTPCH(bench.DB(0.05, 42), false)
	q := queries.MustBuild(12, queries.Params{SF: 0.05})
	defer obs.SetEnabled(true)

	run := func(enabled bool) time.Duration {
		obs.SetEnabled(enabled)
		start := time.Now()
		if _, _, err := c.RunContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	// Warm both paths before timing.
	run(true)
	run(false)

	// Interleaved samples compared at the 25th percentile: GC pauses and
	// scheduler hiccups only ever add time, so the fast quartile is the
	// cleanest view of the actual per-query cost in either mode.
	const pairs = 24
	b.ResetTimer()
	var on, off []time.Duration
	for i := 0; i < b.N; i++ {
		for p := 0; p < pairs; p++ {
			// Alternate which mode runs first so systematic drift within a
			// pair (cache warmth, background work) cancels.
			if p%2 == 0 {
				on = append(on, run(true))
				off = append(off, run(false))
			} else {
				off = append(off, run(false))
				on = append(on, run(true))
			}
		}
	}
	onQ, offQ := benchQuartile(on), benchQuartile(off)
	b.ReportMetric(onQ.Seconds()/offQ.Seconds(), "obs-overhead-ratio")
	b.ReportMetric(onQ.Seconds()*1000, "instrumented-ms")
	b.ReportMetric(offQ.Seconds()*1000, "noobs-ms")
}

func benchQuartile(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/4]
}
