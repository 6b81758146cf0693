package engine

import (
	"sort"
	"time"
)

// PipelineStat reports one pipeline's execution inside a graph run. Start
// and End are relative to the run start; Start is the moment the first
// morsel was dispatched (streaming pipelines that waited for network input
// start late even though they were runnable from the beginning). Busy is
// the summed worker time spent processing this pipeline's morsels across
// the pool.
type PipelineStat struct {
	Name    string
	Skipped bool
	Start   time.Duration
	End     time.Duration
	Busy    time.Duration
	// Finalize is the wall time the sink's Finalize took (included in the
	// Start..End interval; exchange sends flush their last buffers here).
	Finalize time.Duration
	Morsels  int
	// Ops reports per-operator execution counters in pipeline order
	// (explain analyze).
	Ops []OpStat
	// SinkName/SinkRows/SinkBytes/SinkMsgs describe the pipeline breaker
	// when it implements SinkStats (exchange sends report exact wire bytes
	// and messages).
	SinkName  string
	SinkRows  uint64
	SinkBytes uint64
	SinkMsgs  uint64
}

// OpStat is the execution profile of one operator inside a pipeline:
// rows entering and leaving, summed worker wall time, and how many fresh
// batch materializations it performed (operators that pool their scratch
// buffers report their own count through AllocCounter).
type OpStat struct {
	Name    string
	RowsIn  int64
	RowsOut int64
	Batches int64
	Allocs  int64
	Time    time.Duration
}

// sweepEvent is one endpoint of a pipeline's wall interval.
type sweepEvent struct {
	t     time.Duration
	delta int
}

// sweepEvents builds the sorted interval endpoints of all pipelines that
// did work. At equal timestamps a close sorts before an open, so
// back-to-back pipelines never count as concurrent.
func sweepEvents(stats []PipelineStat) []sweepEvent {
	var evs []sweepEvent
	for _, st := range stats {
		if st.Skipped || st.Morsels == 0 || st.End <= st.Start {
			continue
		}
		evs = append(evs, sweepEvent{st.Start, +1}, sweepEvent{st.End, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].delta < evs[j].delta
	})
	return evs
}

// PeakConcurrency returns the true maximum number of pipelines in flight
// at the same instant (sweep over start/end events — pairwise interval
// overlap would overestimate: A overlapping B and separately C does not
// mean B and C ever ran together).
func PeakConcurrency(stats []PipelineStat) int {
	depth, peak := 0, 0
	for _, e := range sweepEvents(stats) {
		depth += e.delta
		if depth > peak {
			peak = depth
		}
	}
	return peak
}

// OverlapRatio measures compute/communication overlap on one server: the
// fraction of the time during which at least one pipeline was in flight
// that at least *two* were. 0 means strictly serial execution (the old
// ordered-list model); values approaching 1 mean the DAG kept several
// pipelines busy simultaneously.
func OverlapRatio(stats []PipelineStat) float64 {
	evs := sweepEvents(stats)
	if len(evs) == 0 {
		return 0
	}
	var anyT, overlapT time.Duration
	depth := 0
	prev := evs[0].t
	for _, e := range evs {
		if e.t > prev {
			if depth >= 1 {
				anyT += e.t - prev
			}
			if depth >= 2 {
				overlapT += e.t - prev
			}
			prev = e.t
		}
		depth += e.delta
	}
	if anyT == 0 {
		return 0
	}
	return float64(overlapT) / float64(anyT)
}

// FirstDispatch returns the delay between the run's submission and the
// moment the shared worker pool dispatched its first morsel for it — the
// engine-level queue wait a query experiences when many runs compete for
// the pool. Zero when the run was picked up immediately (or did no work).
func FirstDispatch(stats []PipelineStat) time.Duration {
	first := time.Duration(-1)
	for _, st := range stats {
		if st.Skipped || st.Morsels == 0 {
			continue
		}
		if first < 0 || st.Start < first {
			first = st.Start
		}
	}
	if first < 0 {
		return 0
	}
	return first
}
