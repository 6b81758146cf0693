package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/plan"
	"hsqp/internal/queries"
	"hsqp/internal/ser"
	"hsqp/internal/storage"
)

// Options are the knobs every experiment accepts. Zero values select the
// experiment's own defaults, so the CLI, the facade and `go test -bench`
// all run an entry with the same parameters unless told otherwise.
type Options struct {
	SF      float64 // scale factor
	Servers int     // cluster size (maximum size for scale-out sweeps)
	Streams int     // concurrent client streams (throughput)
	Full    bool    // all 22 queries and the full parameter grids
}

func (o Options) sf(def float64) float64 {
	if o.SF > 0 {
		return o.SF
	}
	return def
}

func (o Options) servers(def int) int {
	if o.Servers > 0 {
		return o.Servers
	}
	return def
}

// workload is the TPC-H workload at the chosen scale factor: the quick
// query subset, or every query under Full.
func (o Options) workload(defSF float64) Workload {
	wl := Workload{SF: o.sf(defSF)}
	if o.Full {
		wl.Queries = queries.All()
	}
	return wl
}

// Experiment is one table or figure of the evaluation. Run prints it to w
// and returns its headline metrics keyed by unit name (nil when the
// artifact has no single headline number).
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, o Options) (map[string]float64, error)
}

// Registry is an ordered list of experiments.
type Registry []Experiment

// IDs lists the registry's experiment ids in order.
func (r Registry) IDs() []string {
	ids := make([]string, len(r))
	for i, e := range r {
		ids[i] = e.ID
	}
	return ids
}

// Lookup returns the experiment with the given id; the error for an
// unknown id lists the valid ones.
func (r Registry) Lookup(id string) (Experiment, error) {
	for _, e := range r {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(r.IDs(), ", "))
}

// Experiments is the evaluation, in paper order followed by this
// reproduction's own experiments. `hsqp experiment`, hsqp.RunExperiment and
// the root package's BenchmarkExperiment all read it.
var Experiments = Registry{
	{"table1", "Table 1: network data link standards", func(w io.Writer, o Options) (map[string]float64, error) {
		Table1(w)
		return nil, nil
	}},
	{"fig2", "Figure 2: hybrid vs classic exchange, core scaling", func(w io.Writer, o Options) (map[string]float64, error) {
		steps := []int{1, 2, 4}
		if o.Full {
			steps = append(steps, 8)
		}
		pts, err := Figure2{Workload: o.workload(0.05), Servers: o.servers(3), CoreSteps: steps}.Run(w)
		if err != nil {
			return nil, err
		}
		first, last := pts[0], pts[len(pts)-1]
		return map[string]float64{
			"hybrid-speedup":  first.Hybrid.Seconds() / last.Hybrid.Seconds(),
			"classic-speedup": first.Classic.Seconds() / last.Classic.Seconds(),
		}, nil
	}},
	{"fig3", "Figure 3: scale-out of the three engines", func(w io.Writer, o Options) (map[string]float64, error) {
		maxServers := 4
		if o.Full {
			maxServers = 6
		}
		pts, err := Figure3{Workload: o.workload(0.05), MaxServers: o.servers(maxServers)}.Run(w)
		if err != nil {
			return nil, err
		}
		last := pts[len(pts)-1]
		return map[string]float64{
			"rdma-speedup": last.Speedup["RDMA+sched"],
			"gbe-speedup":  last.Speedup["TCP/GbE"],
		}, nil
	}},
	{"fig4", "Figure 4: memory-bus traffic per payload byte (model)", func(w io.Writer, o Options) (map[string]float64, error) {
		Figure4(w)
		return nil, nil
	}},
	{"fig5", "Figure 5: transport tuning", func(w io.Writer, o Options) (map[string]float64, error) {
		pts, err := Figure5(w)
		if err != nil {
			return nil, err
		}
		m := map[string]float64{}
		for _, p := range pts {
			switch p.Name {
			case "default RDMA":
				m["rdma-GB/s"] = p.Unidirectional
			case "TCP w/o offload":
				m["tcp-slow-GB/s"] = p.Unidirectional
			}
		}
		return m, nil
	}},
	{"fig6", "Figure 6: Q17 plan with groupjoin and pre-aggregation", func(w io.Writer, o Options) (map[string]float64, error) {
		q, err := queries.Build(17, queries.Params{SF: o.sf(1)})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "== Figure 6: TPC-H Q17 plan ==\n%s", plan.Explain(q))
		return nil, nil
	}},
	{"fig8", "Figure 8: serialization format (partsupp)", figure8},
	{"fig9", "Figure 9: NUMA-aware message allocation", func(w io.Writer, o Options) (map[string]float64, error) {
		pts, err := Figure9{Workload: o.workload(0.05), Servers: o.servers(3)}.Run(w)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"one-socket-remote-frac": pts[2].RemoteFrac}, nil
	}},
	{"fig10b", "Figure 10(b): all-to-all vs round-robin scheduling", func(w io.Writer, o Options) (map[string]float64, error) {
		pts, err := Figure10b(w)
		if err != nil {
			return nil, err
		}
		last := pts[len(pts)-1]
		return map[string]float64{fmt.Sprintf("improvement-at-%d", last.Servers): last.RoundRobin/last.AllToAll - 1}, nil
	}},
	{"fig10c", "Figure 10(c): throughput vs message size", func(w io.Writer, o Options) (map[string]float64, error) {
		_, err := Figure10c(w)
		return nil, err
	}},
	{"fig11", "Figure 11: per-query scalability", func(w io.Writer, o Options) (map[string]float64, error) {
		wl, serverList := o.workload(0.05), []int{1, 2, 4}
		if o.Full {
			serverList = []int{1, 2, 3, 4, 5, 6}
		} else {
			wl.Queries = []int{1, 5, 12}
		}
		_, err := Figure11{Workload: wl, ServerList: serverList}.Run(w)
		return nil, err
	}},
	{"fig12a", "Figure 12(a): queries per hour by system style", func(w io.Writer, o Options) (map[string]float64, error) {
		pts, err := Figure12a{Workload: o.workload(0.02), Servers: o.servers(3), IncludeInterpreted: o.Full}.Run(w)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"hyper-partitioned-qph": pts[len(pts)-1].QpH,
			"slowest-style-qph":     pts[0].QpH,
		}, nil
	}},
	{"fig12b", "Figure 12(b): speedup over GbE as the data rate grows", func(w io.Writer, o Options) (map[string]float64, error) {
		_, err := Figure12b{Workload: o.workload(0.05), Servers: o.servers(3)}.Run(w)
		return nil, err
	}},
	{"table2", "Table 2: detailed query runtimes", func(w io.Writer, o Options) (map[string]float64, error) {
		cols, err := Table2{Workload: o.workload(0.05), Servers: o.servers(3), IncludeInterpreted: o.Full}.Run(w)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"hyper-partitioned-qph": cols[len(cols)-1].QpH}, nil
	}},
	{"sched", "§4.2.2: impact of network scheduling per transport", func(w io.Writer, o Options) (map[string]float64, error) {
		pts, err := SchedulingImpact{Workload: o.workload(0.05), Servers: o.servers(4)}.Run(w)
		if err != nil {
			return nil, err
		}
		m := map[string]float64{}
		for _, p := range pts {
			m["improvement-"+p.Transport] = p.Improvement
		}
		return m, nil
	}},
	{"sf", "§4.3.3: input size scaling (SF → 3×SF)", func(w io.Writer, o Options) (map[string]float64, error) {
		ratio, err := ScaleFactorScaling{Workload: o.workload(0.03), Servers: o.servers(3)}.Run(w)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"time-ratio-3x-data": ratio}, nil
	}},
	{"skew", "§3.1: skew impact on parallel units", func(w io.Writer, o Options) (map[string]float64, error) {
		pts := Skew{}.Run(w)
		return map[string]float64{
			"overload-6-units":   pts[0].Overload,
			"overload-240-units": pts[1].Overload,
		}, nil
	}},
	{"skewjoin", "§3.1: skewed shuffle join, static vs classic vs adaptive", func(w io.Writer, o Options) (map[string]float64, error) {
		pts, err := SkewedJoin{Servers: o.servers(3), Transport: cluster.TCPGbE}.Run(w)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"classic-slowdown": pts[1].Time.Seconds() / pts[0].Time.Seconds()}, nil
	}},
	{"skewsweep", "Adaptive skew handling across Zipf skew", func(w io.Writer, o Options) (map[string]float64, error) {
		rows := 200_000
		if o.Full {
			rows = 600_000
		}
		_, err := SkewSweep{SkewedJoin: SkewedJoin{Servers: o.servers(3), Transport: cluster.TCPGbE, Rows: rows}}.Run(w)
		return nil, err
	}},
	{"preagg", "Ablation: pre-aggregation before group-by exchanges", func(w io.Writer, o Options) (map[string]float64, error) {
		res, err := PreAggAblation{SF: o.sf(0.05), Servers: o.servers(3)}.Run(w)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"shuffle-reduction": float64(res.BytesWithout) / float64(res.BytesWith)}, nil
	}},
	{"groupjoin", "Ablation: Q18 via groupjoin vs aggregate-then-join", func(w io.Writer, o Options) (map[string]float64, error) {
		gj, aj, err := GroupJoinAblation{SF: o.sf(0.05), Servers: o.servers(3)}.Run(w)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"aggjoin-vs-groupjoin": aj.Seconds() / gj.Seconds()}, nil
	}},
	{"throughput", "Multi-query throughput: concurrent streams vs serial", func(w io.Writer, o Options) (map[string]float64, error) {
		run := Throughput{Servers: o.servers(3), Streams: o.Streams, SF: o.SF}
		if o.Full {
			run.Queries = []int{1, 12}
			run.Rounds = 2
		}
		res, err := run.Run(w)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"serial-qps":     res.SerialQPS,
			"concurrent-qps": res.ConcurrentQPS,
			"speedup":        res.Speedup,
			"p99-ms":         float64(res.ConcurrentP99.Milliseconds()),
		}, nil
	}},
	{"serving", "Serving paths: cold, plan-cache hit, result-cache hit", func(w io.Writer, o Options) (map[string]float64, error) {
		run := Serving{Servers: o.servers(3), SF: o.SF}
		if o.Full {
			run.Iters = 10
			run.FairRequests = 20
		}
		res, err := run.Run(w)
		if err != nil {
			return nil, err
		}
		m := map[string]float64{
			"cold-ms":           ms(res.ColdP50),
			"planhit-ms":        ms(res.PlanHitP50),
			"resulthit-ms":      ms(res.ResultHitP50),
			"planhit-speedup":   res.PlanSpeedup,
			"resulthit-speedup": res.ResultSpeedup,
		}
		for _, ts := range res.Tenants {
			m[ts.Tenant+"-queue-p99-ms"] = ms(ts.QueueP99)
		}
		return m, nil
	}},
	{"chaos", "Fault tolerance: kill, hang, partition mid-query", func(w io.Writer, o Options) (map[string]float64, error) {
		sf := 0.01
		if o.Full {
			sf = 0.02
		}
		_, err := Chaos{SF: o.sf(sf)}.Run(w)
		return nil, err
	}},
}

// ms renders a duration as fractional milliseconds at microsecond
// resolution.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// figure8 measures the densely packed wire format of Figure 8 on its
// example relation: encoded size per row and round-trip (encode + decode)
// throughput over the whole partsupp table.
func figure8(w io.Writer, o Options) (map[string]float64, error) {
	ps := DB(o.sf(0.01), 42).Tables["partsupp"]
	codec := ser.NewCodec(ps.Schema)
	start := time.Now()
	var buf []byte
	for r := 0; r < ps.Rows(); r++ {
		buf = codec.EncodeRow(ps, r, buf)
	}
	out := storage.NewBatch(ps.Schema, ps.Rows())
	if _, err := codec.DecodeAll(buf, out); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	if out.Rows() != ps.Rows() {
		return nil, fmt.Errorf("fig8: decoded %d rows, encoded %d", out.Rows(), ps.Rows())
	}
	bytesPerRow := float64(len(buf)) / float64(ps.Rows())
	mbps := float64(len(buf)) / 1e6 / elapsed.Seconds()
	tab := &Table{
		Title:  "Figure 8: serialization format (partsupp)",
		Header: []string{"rows", "encoded", "bytes/row", "round trip", "MB/s"},
	}
	tab.Add(fmt.Sprintf("%d", ps.Rows()), MB(uint64(len(buf))), F2(bytesPerRow), Dur(elapsed), F2(mbps))
	tab.Fprint(w)
	return map[string]float64{"bytes-per-row": bytesPerRow, "roundtrip-MB/s": mbps}, nil
}
