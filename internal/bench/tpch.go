package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/queries"
	"hsqp/internal/tpch"
)

// QuickQueries is the default per-experiment query subset: a mix of
// scan-bound (1, 6), join/shuffle-bound (3, 5, 12) and aggregation-bound
// (14, 18) queries, so that transport and scheduling effects show without
// running the full suite per configuration.
var QuickQueries = []int{1, 3, 5, 6, 12, 14, 18}

// workersPerServer is the worker-pool size of every server in the TPC-H
// experiments that do not sweep or pin it themselves.
const workersPerServer = 4

// Workload fixes the dataset of an experiment.
type Workload struct {
	SF      float64
	Seed    uint64
	Queries []int
	// Partitioned selects partitioned placement (else chunked).
	Partitioned bool
	// Repeat runs each query this many times and keeps the fastest
	// (noise suppression). Zero means 2.
	Repeat int
}

func (w Workload) withDefaults() Workload {
	if w.SF == 0 {
		w.SF = 0.05
	}
	if w.Seed == 0 {
		w.Seed = 42
	}
	if len(w.Queries) == 0 {
		w.Queries = QuickQueries
	}
	if w.Repeat == 0 {
		w.Repeat = 2
	}
	return w
}

// dbCache shares generated databases across experiments in one process.
var (
	dbMu    sync.Mutex
	dbCache = map[string]*tpch.Database{}
)

// DB returns the cached database for (sf, seed).
func DB(sf float64, seed uint64) *tpch.Database {
	key := fmt.Sprintf("%g/%d", sf, seed)
	dbMu.Lock()
	defer dbMu.Unlock()
	if db := dbCache[key]; db != nil {
		return db
	}
	db := tpch.Generate(sf, seed)
	dbCache[key] = db
	return db
}

// RunResult is the outcome of one TPC-H run on one configuration.
type RunResult struct {
	Times map[int]time.Duration
	Total time.Duration
	// WireBytes and WireMessages sum the queries' exact exchange traffic,
	// loopback partitions included (QueryStats.WireBytes/WireMessages).
	WireBytes    uint64
	WireMessages uint64
}

// QpH extrapolates queries-per-hour from the run (like Figure 12(a)).
func (r RunResult) QpH() float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(len(r.Times)) / r.Total.Hours()
}

// GeoMeanSeconds returns the geometric mean of the per-query times.
func (r RunResult) GeoMeanSeconds() float64 {
	ds := make([]time.Duration, 0, len(r.Times))
	for _, d := range r.Times {
		ds = append(ds, d)
	}
	return GeoMean(ds)
}

// warmupOnce runs a throwaway workload once per process before the first
// measurement: thread-pool ramp-up, heap sizing and CPU frequency state
// otherwise penalize whichever configuration happens to run first.
var warmupOnce sync.Once

// Warmup primes the process. All experiment entry points call it; exposed
// for external benchmark drivers.
func Warmup() {
	warmupOnce.Do(func() {
		c, err := cluster.New(cluster.Config{
			Servers:          2,
			WorkersPerServer: 4,
			Transport:        cluster.RDMA,
			Scheduling:       true,
			TimeScale:        1,
		})
		if err != nil {
			return
		}
		defer c.Close()
		c.LoadTPCH(DB(0.02, 42), false)
		_, _ = RunOnCluster(c, Workload{SF: 0.02, Queries: []int{1, 5, 18}, Repeat: 1})
	})
}

// RunTPCH executes the workload's queries on a fresh cluster built from
// cfg and tears the cluster down again.
func RunTPCH(cfg cluster.Config, w Workload) (RunResult, error) {
	Warmup()
	w = w.withDefaults()
	c, err := cluster.New(cfg)
	if err != nil {
		return RunResult{}, err
	}
	defer c.Close()
	c.LoadTPCH(DB(w.SF, w.Seed), w.Partitioned)
	return RunOnCluster(c, w)
}

// RunOnCluster executes the workload's queries on an existing, loaded
// cluster.
func RunOnCluster(c *cluster.Cluster, w Workload) (RunResult, error) {
	w = w.withDefaults()
	res := RunResult{Times: make(map[int]time.Duration, len(w.Queries))}
	for _, q := range w.Queries {
		qp, err := queries.Build(q, queries.Params{SF: w.SF})
		if err != nil {
			return res, err
		}
		var best cluster.QueryStats
		for r := 0; r < w.Repeat; r++ {
			_, stats, err := c.RunContext(context.Background(), qp)
			if err != nil {
				return res, fmt.Errorf("bench: q%d: %w", q, err)
			}
			if r == 0 || stats.Duration < best.Duration {
				best = stats
			}
		}
		res.Times[q] = best.Duration
		res.Total += best.Duration
		res.WireBytes += best.WireBytes()
		res.WireMessages += best.WireMessages()
	}
	return res, nil
}
