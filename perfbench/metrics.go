package main

import (
	"strings"
	"time"
)

// metric is one named figure as printed in the result line.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// notApplicable marks a per-layer metric that the workload cannot observe
// from outside the program (for example op counters behind the serve
// protocol, or serve metrics on a power run).
const notApplicable = -1

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// per divides x by n, or returns 0 when there is nothing to divide by.
func per(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// ratio divides x by y, or returns 0 when y is 0.
func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

func setupMedians(setups []setupTimes, pick func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(setups))
	for i, s := range setups {
		xs[i] = pick(s).Seconds()
	}
	return median(xs)
}

// endToEnd computes the metrics a user of the system sees.
func endToEnd(ph *phase, setups []setupTimes) []metric {
	var lat []float64
	for _, s := range ph.samples {
		if s.err == nil {
			lat = append(lat, ms(s.latency))
		}
	}
	return []metric{
		{"qps", "1/s", ratio(float64(len(lat)), ph.activeWall().Seconds())},
		{"latency_p50_ms", "ms", percentile(lat, 0.5)},
		{"latency_p90_ms", "ms", percentile(lat, 0.9)},
		{"setup_s", "s", setupMedians(setups, setupTimes.total)},
		{"heap_peak_mb", "MB", float64(ph.heapPeak) / 1e6},
	}
}

// failures counts the operations that failed or returned a wrong result.
func failures(ph *phase) int {
	n := 0
	for _, s := range ph.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// modeQPS is the completion rate of the slices run in one observability
// mode.
func modeQPS(ph *phase, traced bool) float64 {
	n := 0
	for _, s := range ph.samples {
		if s.err == nil && s.traced == traced {
			n++
		}
	}
	return ratio(float64(n), ph.modes[modeIndex(traced)].wall.Seconds())
}

// perLayer computes the per-layer metrics over the traced slices of a
// phase: samples that completed with observability on, and the counter
// deltas of those slices. Engine-level figures are per executed query
// (a result-cache hit executes nothing); runtime figures are per
// operation.
func perLayer(w workload, rate, timeScale float64, ph *phase, setups []setupTimes) []metric {
	var all, executed []sample
	for _, s := range ph.samples {
		if s.err != nil || !s.traced {
			continue
		}
		all = append(all, s)
		if !s.resultHit {
			executed = append(executed, s)
		}
	}
	nE, nAll := len(executed), len(all)
	d := ph.modes[1].delta

	var build, compile, exec, busy, finalize, opTime time.Duration
	var morsels, opRows, opAllocs, restarts int64
	var overlap, wire float64
	var sched, clusterWait []float64
	planHits := 0
	for _, s := range executed {
		build += s.build
		compile += s.compile
		exec += s.exec
		busy += s.busy
		finalize += s.finalize
		opTime += s.opTime
		morsels += int64(s.morsels)
		opRows += s.opRows
		opAllocs += s.opAllocs
		restarts += int64(s.restarts)
		overlap += s.overlap
		wire += float64(s.wire)
		sched = append(sched, ms(s.schedDelay))
		clusterWait = append(clusterWait, ms(s.queueWait))
		if s.planHit {
			planHits++
		}
	}

	obsMorsels := d.obs["hsqp_engine_morsels_total"]
	m := []metric{
		{"tpch.generate_s", "s", setupMedians(setups, func(s setupTimes) time.Duration { return s.generate })},
		{"cluster.start_s", "s", setupMedians(setups, func(s setupTimes) time.Duration { return s.start })},
		{"storage.load_s", "s", setupMedians(setups, func(s setupTimes) time.Duration { return s.load })},
		{"serve.start_s", "s", setupMedians(setups, func(s setupTimes) time.Duration { return s.serveStart })},
		{"cluster.warmup_s", "s", setupMedians(setups, func(s setupTimes) time.Duration { return s.warmup })},

		{"plan.build_us_per_query", "us", per(float64(build)/float64(time.Microsecond), nE)},
		{"plan.compile_ms_per_query", "ms", per(ms(compile), nE)},

		{"op.time_ms_per_query", "ms", per(ms(opTime), nE)},
		{"op.rows_per_query", "rows", per(float64(opRows), nE)},
		{"op.allocs_per_query", "count", per(float64(opAllocs), nE)},
		{"runtime.alloc_mb_per_query", "MB", per(d.runtime["/gc/heap/allocs:bytes"]/1e6, nAll)},
		{"runtime.gc_cpu_frac", "ratio", ratio(d.runtime["/cpu/classes/gc/total:cpu-seconds"], d.runtime["/cpu/classes/total:cpu-seconds"])},

		{"engine.exec_ms_per_query", "ms", per(ms(exec), nE)},
		{"engine.busy_ms_per_query", "ms", per(ms(busy), nE)},
		{"engine.busy_frac", "ratio", ratio(float64(busy), float64(exec)*servers*workersPerServer)},
		{"engine.finalize_ms_per_query", "ms", per(ms(finalize), nE)},
		{"engine.morsels_per_query", "count", per(float64(morsels), nE)},
		{"engine.overlap_ratio", "ratio", per(overlap, nE)},
		{"engine.sched_delay_ms_p50", "ms", median(sched)},
		{"engine.steal_frac", "ratio", ratio(d.obs["hsqp_engine_steals_total"], obsMorsels)},

		{"exchange.wire_kb_per_query", "KB", per(wire/1e3, nE)},
		{"exchange.messages_per_query", "count", per(d.obs["hsqp_exchange_messages_total"], nE)},
		{"fabric.delivered_mb_per_query", "MB", per(float64(d.fabBytes)/1e6, nE)},
		{"fabric.link_util", "ratio", ratio(float64(d.fabBytes)/rate*timeScale, exec.Seconds()*servers)},
		{"tcp.cpu_ms_per_query", "ms", per(d.tcpCPU*1e3, nE)},
		{"tcp.segments_per_query", "count", per(float64(d.tcpSegments), nE)},
		{"rdma.cpu_ms_per_query", "ms", per(d.rdmaCPU*1e3, nE)},

		{"mux.msgs_per_query", "count", per(float64(d.mux.MsgsSent+d.mux.LocalMsgs), nE)},
		{"mux.local_frac", "ratio", ratio(float64(d.mux.LocalMsgs), float64(d.mux.MsgsSent+d.mux.LocalMsgs))},
		{"mux.stolen_frac", "ratio", ratio(float64(d.mux.StolenMsgs), float64(d.mux.MsgsSent+d.mux.LocalMsgs))},
		{"mux.barriers_per_query", "count", per(float64(d.mux.SyncBarriers), nE)},
		{"mux.send_stall_ms_per_query", "ms", per(d.obs["hsqp_mux_send_stall_nanoseconds_total"]/1e6, nE)},
		{"mux.recv_stall_ms_per_query", "ms", per(d.obs["hsqp_mux_recv_stall_nanoseconds_total"]/1e6, nE)},
		{"mux.dropped_msgs", "count", float64(d.mux.DroppedMsgs)},

		{"memory.fresh_buffers", "count", float64(d.pool.Allocated)},
		{"memory.recycle_ratio", "ratio", ratio(float64(d.pool.Recycled), float64(d.pool.Allocated+d.pool.Recycled))},

		{"cluster.queue_wait_ms_p50", "ms", median(clusterWait)},
		{"cluster.restarts", "count", float64(restarts)},
	}

	m = append(m, serveMetrics(all, nE, planHits)...)
	if w.served {
		// Behind the serve protocol the client gets no QueryStats: the
		// engine totals come from the obs registry instead, and the
		// figures only a QueryStats has are not observable.
		busyNanos := d.obs["hsqp_engine_busy_nanoseconds_total"]
		set(m, "engine.busy_ms_per_query", per(busyNanos/1e6, nE))
		set(m, "engine.busy_frac", ratio(busyNanos, float64(exec)*servers*workersPerServer))
		set(m, "engine.finalize_ms_per_query", per(d.obs["hsqp_engine_finalize_nanoseconds_total"]/1e6, nE))
		set(m, "engine.morsels_per_query", per(obsMorsels, nE))
		set(m, "exchange.wire_kb_per_query", per(d.obs["hsqp_exchange_wire_bytes_total"]/1e3, nE))
		set(m, "cluster.restarts", d.obs["hsqp_cluster_query_restarts_total"])
		for _, name := range []string{
			"plan.build_us_per_query", "op.time_ms_per_query", "op.rows_per_query",
			"op.allocs_per_query", "engine.overlap_ratio", "engine.sched_delay_ms_p50",
		} {
			set(m, name, notApplicable)
		}
	} else {
		for i := range m {
			if strings.HasPrefix(m[i].Name, "serve.") {
				m[i].Value = notApplicable
			}
		}
	}

	m = append(m,
		metric{"obs.trace_overhead_ratio", "ratio", ratio(modeQPS(ph, false), modeQPS(ph, true))},
		metric{"bench.samples", "count", float64(len(ph.samples))},
	)
	return m
}

// set overwrites the value of the named metric.
func set(m []metric, name string, v float64) {
	for i := range m {
		if m[i].Name == name {
			m[i].Value = v
			return
		}
	}
}

// serveMetrics are the serving tier's figures over the traced requests.
func serveMetrics(all []sample, executed, planHits int) []metric {
	var wait, server, proto, hitWall []float64
	hits := 0
	for _, s := range all {
		wait = append(wait, ms(s.queueWait))
		server = append(server, ms(s.total))
		proto = append(proto, ms(s.wall-s.total))
		if s.resultHit {
			hits++
			hitWall = append(hitWall, float64(s.wall)/float64(time.Microsecond))
		}
	}
	return []metric{
		{"serve.queue_wait_ms_p50", "ms", median(wait)},
		{"serve.server_ms_p50", "ms", median(server)},
		{"serve.protocol_ms_p50", "ms", median(proto)},
		{"serve.plan_hit_ratio", "ratio", per(float64(planHits), executed)},
		{"serve.result_hit_ratio", "ratio", per(float64(hits), len(all))},
		{"serve.result_hit_us_p50", "us", median(hitWall)},
	}
}
