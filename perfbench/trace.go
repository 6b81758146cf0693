package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"hsqp/internal/obs"
)

// benchPID is the Chrome-trace process track of the benchmark's own
// spans; the program's query spans keep their server and coordinator
// tracks (0..servers).
const benchPID = 100

// maxProgramTraces bounds how many queries' program traces are merged into
// the trace file, so the file stays small on long runs.
const maxProgramTraces = 200

// spanRec is one timed interval. Benchmark spans wrap the benchmark's
// calls into a layer; program spans come from a query's QueryStats.Trace
// and hang under the benchmark span of the call that produced them.
type spanRec struct {
	ID, Parent int // Parent 0 = root
	Name       string
	Cat        string // "bench" for the benchmark's spans
	QID        int    // per-operation id shared by all spans of one query
	PID, TID   int
	Start, End time.Duration // since the recorder's origin
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how the untraced run skips span bookkeeping.
type recorder struct {
	origin time.Time

	mu       sync.Mutex
	nextID   int
	spans    []spanRec
	programs int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// newID reserves a span id, so children can name their parent before the
// parent's interval is known.
func (r *recorder) newID() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records a benchmark span [start, end) under id.
func (r *recorder) add(id, parent int, name string, qid, tid int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRec{
		ID: id, Parent: parent, Name: name, Cat: "bench", QID: qid,
		PID: benchPID, TID: tid, Start: start.Sub(r.origin), End: end.Sub(r.origin),
	})
}

// attach merges a query's program trace under the benchmark span parent.
// The trace's offsets are relative to compile start, which is when the
// RunContext call began (callStart).
func (r *recorder) attach(parent, qid int, tr *obs.Trace, callStart time.Time) {
	if r == nil || tr == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.programs >= maxProgramTraces {
		return
	}
	r.programs++
	base := callStart.Sub(r.origin)
	for _, s := range tr.Spans {
		r.nextID++
		r.spans = append(r.spans, spanRec{
			ID: r.nextID, Parent: parent, Name: s.Name, Cat: s.Cat, QID: qid,
			PID: s.PID, TID: s.TID, Start: base + s.Start, End: base + s.Start + s.Dur,
		})
	}
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []spanRec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRec(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals.
func selfTimes(spans []spanRec) map[int]time.Duration {
	children := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered measures how much of [lo, hi) the union of ivs covers.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end time.Duration
	end = lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		if iv[0] > end {
			end = iv[0]
		}
		total += iv[1] - end
		end = iv[1]
	}
	return total
}

// spanSummary is the self time of one benchmark span name, summed over
// all its occurrences.
type spanSummary struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// summarize aggregates self time per benchmark span name, in first-seen
// order of the names.
func summarize(spans []spanRec) []spanSummary {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []spanSummary
	for _, s := range spans {
		if s.Cat != "bench" {
			continue
		}
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanSummary{Name: s.Name})
		}
		out[i].Count++
		out[i].Total += s.End - s.Start
		out[i].Self += self[s.ID]
	}
	return out
}

// writeChrome writes every span as one Chrome trace_event file. A "run"
// span on the benchmark track covers the whole recording and carries the
// environment stamp as its args.
func writeChrome(w io.Writer, spans []spanRec, servers int, stamp map[string]any) error {
	tr := obs.NewTrace(0)
	tr.ControlPID = servers
	tr.SetProcessName(benchPID, "perfbench client")
	tr.SetProcessName(servers, "coordinator")
	for id := 0; id < servers; id++ {
		tr.SetProcessName(id, fmt.Sprintf("server %d", id))
	}
	tr.SetThreadName(benchPID, 0, "setup")
	var extent time.Duration
	for _, s := range spans {
		if s.Cat == "bench" && s.TID > 0 {
			tr.SetThreadName(benchPID, s.TID, fmt.Sprintf("client %d", s.TID))
		}
		extent = max(extent, s.End)
		tr.Add(obs.Span{
			Name: s.Name, Cat: s.Cat, PID: s.PID, TID: s.TID,
			Start: s.Start, Dur: s.End - s.Start, Args: map[string]any{"qid": s.QID},
		})
	}
	tr.Add(obs.Span{Name: "run", Cat: "bench", PID: benchPID, TID: 0, Dur: extent, Args: stamp})
	return tr.WriteChromeJSON(w)
}
