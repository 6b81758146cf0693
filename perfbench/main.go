// Command perfbench is hsqp's benchmark. It runs one named workload
// against the engine's public entry points for a fixed time, checks every
// result against the reference interpreter, and prints the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) by name
// and unit. The last line of its output is one JSON object.
//
//	bash perfbench/run.sh --workload power-rdma --seed 1 --seconds 15 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"hsqp"
	"hsqp/internal/fabric"
)

// heldOutSeed is kept out of all tuning: confirm a claimed change on it
// after the seeds it was developed on.
const heldOutSeed = 20150401

// options are the settings of one run. The command line sets the first
// four; the rest are fixed for the benchmark and smaller in its tests.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sf       float64 // overrides the workload's scale factor when > 0
	// setups is how many times the workload is set up; setup_s is the
	// median and the last set-up is the one measured.
	setups int
	// minOps is the least number of operations a run measures, so that
	// p90 has at least ten samples beyond it.
	minOps   int
	traceDir string
}

func main() {
	o := options{setups: 5, minOps: 100, traceDir: filepath.Join(".bench_build", "traces")}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the generated data, query order and statement sequence")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured time per run in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics with observability off; 1: per-layer metrics from a traced run")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	correct, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run and writes the report to out. It returns
// whether every result was correct; err reports a run that could not be
// measured at all.
func run(o options, out io.Writer) (bool, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return false, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 || o.setups < 1 || o.minOps < 1 {
		return false, errors.New("--seconds must be positive")
	}
	sf := w.sf
	if o.sf > 0 {
		sf = o.sf
	}
	hsqp.SetObservability(false)
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}

	var setups []setupTimes
	var r *rig
	for i := 0; i < o.setups; i++ {
		if r != nil {
			r.close()
		}
		var err error
		if r, err = newRig(w, sf, o.seed, rec); err != nil {
			return false, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, r.times)
	}
	defer r.close()
	stamp := environment(w, r, sf, o)
	fmt.Fprintln(out, "perfbench", formatStamp(stamp))
	fmt.Fprintln(out, "note: wall times on this host over a simulated fabric and loopback sockets,",
		"not real InfiniBand or Ethernet figures; no modeled makespan is reported")
	if err := r.verify(); err != nil {
		fmt.Fprintln(out, "VERIFICATION FAILED:", err)
		return false, nil
	}

	runtime.GC() // drop earlier set-ups before the heap is sampled
	ro := runOptions{seed: o.seed, seconds: time.Duration(o.seconds * float64(time.Second)), trace: o.trace, minOps: o.minOps}
	var ph *phase
	var err error
	if w.served {
		ph, err = r.runServed(ro, rec)
	} else {
		ph, err = r.runPower(ro, rec)
	}
	if err != nil {
		return false, err
	}

	failed := failures(ph)
	for _, s := range ph.samples {
		if s.err != nil {
			fmt.Fprintf(out, "FAILED q%d: %v\n", s.q, s.err)
			break
		}
	}
	e2e := endToEnd(ph, setups)
	fmt.Fprintf(out, "samples=%d failed=%d failed_frac=%.4f\n", len(ph.samples), failed, float64(failed)/float64(len(ph.samples)))
	printMetrics(out, "end-to-end", e2e)
	metricsOut := e2e
	if o.trace {
		cfg := r.c.Config()
		layers := perLayer(w, float64(cfg.Rate), cfg.TimeScale, ph, setups)
		printMetrics(out, "per-layer", layers)
		printSpans(out, rec.snapshot())
		path, err := writeTraceFile(o, rec.snapshot(), stamp)
		if err != nil {
			return false, err
		}
		fmt.Fprintln(out, "chrome trace:", path)
		metricsOut = layers
	}

	res := result{Correct: failed == 0, Attempted: len(ph.samples), Failed: failed, Metrics: map[string]resultValue{}}
	for _, m := range metricsOut {
		res.Metrics[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(line))
	return res.Correct, nil
}

func printMetrics(out io.Writer, title string, ms []metric) {
	fmt.Fprintf(out, "%s metrics:\n", title)
	for _, m := range ms {
		if m.Value == notApplicable {
			fmt.Fprintf(out, "  %-32s %14s %s\n", m.Name, "n/a", m.Unit)
			continue
		}
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
}

// printSpans prints each benchmark span's self time.
func printSpans(out io.Writer, spans []spanRec) {
	fmt.Fprintln(out, "benchmark span self time (traced slices):")
	fmt.Fprintf(out, "  %-16s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms/op")
	for _, s := range summarize(spans) {
		fmt.Fprintf(out, "  %-16s %7d %12.3f %12.4f\n", s.Name, s.Count, ms(s.Total), ms(s.Self)/float64(s.Count))
	}
}

func writeTraceFile(o options, spans []spanRec, stamp map[string]any) (string, error) {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return "", fmt.Errorf("trace directory: %w", err)
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	if err := writeChrome(f, spans, servers, stamp); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// environment describes where and how the run was measured.
func environment(w workload, r *rig, sf float64, o options) map[string]any {
	cfg := r.c.Config()
	gomaxprocs := []metrics.Sample{{Name: "/sched/gomaxprocs:threads"}}
	metrics.Read(gomaxprocs)
	return map[string]any{
		"workload":      w.name,
		"seed":          o.seed,
		"held_out_seed": uint64(heldOutSeed),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    gomaxprocs[0].Value.Uint64(),
		"go":            runtime.Version(),
		"commit":        commit(),
		"source":        sourceDigest(),
		"transport":     cfg.Transport.String(),
		"link":          fabric.NameOf(cfg.Rate),
		"timescale":     cfg.TimeScale,
		"servers":       servers,
		"workers":       workersPerServer,
		"sf":            sf,
		"trace":         o.trace,
		"seconds":       o.seconds,
	}
}

func formatStamp(stamp map[string]any) string {
	keys := make([]string, 0, len(stamp))
	for k := range stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, stamp[k])
	}
	return strings.Join(parts, " ")
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// sourceDigest identifies the built sources in a checkout without VCS
// data; run.sh computes it.
func sourceDigest() string {
	if d := os.Getenv("PERFBENCH_SOURCE"); d != "" {
		return d
	}
	return "unknown"
}
