package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"hsqp"
	"hsqp/internal/cluster"
	"hsqp/internal/memory"
	"hsqp/internal/mux"
	"hsqp/internal/obs"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between the closest order statistics. xs is not modified;
// an empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// obsCounters are the registry families the traced run reads: the
// per-layer numbers only the obs registry has (engine steals, mux stall
// nanos, exchange message counts) plus the engine and exchange totals the
// serving workload cannot get from a QueryStats.
var obsCounters = []string{
	"hsqp_engine_morsels_total",
	"hsqp_engine_steals_total",
	"hsqp_engine_busy_nanoseconds_total",
	"hsqp_engine_finalize_nanoseconds_total",
	"hsqp_exchange_wire_bytes_total",
	"hsqp_exchange_messages_total",
	"hsqp_mux_send_stall_nanoseconds_total",
	"hsqp_mux_recv_stall_nanoseconds_total",
	"hsqp_cluster_query_restarts_total",
}

// runtimeCounters are the cumulative runtime/metrics the benchmark takes
// deltas of.
var runtimeCounters = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// counters is one snapshot of the cumulative counters the layers expose.
// Subtracting two snapshots gives the layers' work over the interval.
type counters struct {
	mux         mux.Stats
	pool        memory.PoolStats
	fabBytes    uint64
	tcpSegments uint64
	tcpCPU      float64 // modeled seconds
	rdmaCPU     float64 // modeled seconds
	obs         map[string]float64
	runtime     map[string]float64
}

// snapshotCounters reads every counter of the cluster, the obs registry
// and the Go runtime.
func snapshotCounters(c *cluster.Cluster) (counters, error) {
	var s counters
	for _, n := range c.Nodes {
		m := n.Mux.Stats()
		s.mux.BytesSent += m.BytesSent
		s.mux.MsgsSent += m.MsgsSent
		s.mux.LocalMsgs += m.LocalMsgs
		s.mux.StolenMsgs += m.StolenMsgs
		s.mux.SyncBarriers += m.SyncBarriers
		s.mux.DroppedMsgs += m.DroppedMsgs
		p := n.Pool.Stats()
		s.pool.Allocated += p.Allocated
		s.pool.Recycled += p.Recycled
		s.pool.Returned += p.Returned
	}
	s.fabBytes = c.Fabric().BytesDelivered()
	t := c.TCPStats()
	s.tcpSegments, s.tcpCPU = t.Segments, t.CPUSeconds
	s.rdmaCPU = c.RDMAStats().CPUSeconds

	var buf bytes.Buffer
	if err := hsqp.WriteMetrics(&buf); err != nil {
		return s, fmt.Errorf("read metrics registry: %w", err)
	}
	parsed, err := obs.ParseText(&buf)
	if err != nil {
		return s, fmt.Errorf("parse metrics registry: %w", err)
	}
	set := obs.NewSampleSet(parsed)
	s.obs = make(map[string]float64, len(obsCounters))
	for _, name := range obsCounters {
		s.obs[name] = set.Sum(name)
	}

	rs := make([]metrics.Sample, len(runtimeCounters))
	for i, name := range runtimeCounters {
		rs[i].Name = name
	}
	metrics.Read(rs)
	s.runtime = make(map[string]float64, len(rs))
	for _, r := range rs {
		s.runtime[r.Name] = runtimeValue(r.Value)
	}
	return s, nil
}

func runtimeValue(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	default:
		return 0
	}
}

// sub returns a − b, the work done between snapshot b and snapshot a.
func (a counters) sub(b counters) counters { return a.combine(b, -1) }

// add returns a + b, accumulating the deltas of several intervals.
func (a counters) add(b counters) counters { return a.combine(b, +1) }

func (a counters) combine(b counters, sign int) counters {
	u := func(x, y uint64) uint64 {
		if sign < 0 {
			return x - y
		}
		return x + y
	}
	f := func(x, y float64) float64 { return x + float64(sign)*y }
	return counters{
		mux: mux.Stats{
			BytesSent:    u(a.mux.BytesSent, b.mux.BytesSent),
			MsgsSent:     u(a.mux.MsgsSent, b.mux.MsgsSent),
			LocalMsgs:    u(a.mux.LocalMsgs, b.mux.LocalMsgs),
			StolenMsgs:   u(a.mux.StolenMsgs, b.mux.StolenMsgs),
			SyncBarriers: u(a.mux.SyncBarriers, b.mux.SyncBarriers),
			DroppedMsgs:  u(a.mux.DroppedMsgs, b.mux.DroppedMsgs),
		},
		pool: memory.PoolStats{
			Allocated: u(a.pool.Allocated, b.pool.Allocated),
			Recycled:  u(a.pool.Recycled, b.pool.Recycled),
			Returned:  u(a.pool.Returned, b.pool.Returned),
		},
		fabBytes:    u(a.fabBytes, b.fabBytes),
		tcpSegments: u(a.tcpSegments, b.tcpSegments),
		tcpCPU:      f(a.tcpCPU, b.tcpCPU),
		rdmaCPU:     f(a.rdmaCPU, b.rdmaCPU),
		obs:         combineMaps(a.obs, b.obs, f),
		runtime:     combineMaps(a.runtime, b.runtime, f),
	}
}

func combineMaps(a, b map[string]float64, f func(x, y float64) float64) map[string]float64 {
	out := make(map[string]float64, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = f(out[k], v)
	}
	return out
}

// heapSampler polls the Go heap in use and keeps its peak. peak belongs
// to the sampling goroutine until done is closed.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// startHeapSampler samples every interval until stopAndPeak is called.
func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stopAndPeak stops the sampler, waits for it to exit and returns the
// peak heap bytes seen.
func (h *heapSampler) stopAndPeak() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}
