package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hsqp"
	"hsqp/internal/cluster"
	"hsqp/internal/queries"
	"hsqp/internal/ref"
	"hsqp/internal/serve"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

// workload is one named traffic mix over a simulated cluster of
// servers × workersPerServer, chunked placement, default TimeScale and
// round-robin network scheduling.
type workload struct {
	name      string
	sf        float64
	transport cluster.TransportKind
	// served runs the queries through the serve tier over loopback instead
	// of calling Cluster.RunContext directly.
	served  bool
	queries []int
}

var workloads = []workload{
	// Compute-bound: operators, engine and hashing do most of the work.
	{name: "power-rdma", sf: 0.05, transport: cluster.RDMA, queries: queries.All()},
	// Link-bound: fabric pacing, the tcp stack and the mux schedule dominate.
	{name: "power-gbe", sf: 0.02, transport: cluster.TCPGbE, queries: queries.All()},
	// Two concurrent tenants through the serve protocol, its caches and
	// QoS admission.
	{name: "served-mix", sf: 0.02, transport: cluster.RDMA, served: true, queries: []int{1, 3, 5, 6, 12, 14, 18}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	servers          = 3
	workersPerServer = 2
	servedSlots      = 2
	// cacheEvery: every cacheEvery-th request of a connection may be
	// answered from the result cache; the others bypass it.
	cacheEvery = 4
)

// tenants are the served-mix connections, one client each.
var tenants = []struct {
	name   string
	weight int
}{{"heavy", 4}, {"light", 1}}

var errWrongResult = errors.New("result differs from the verified reference digest")

// setupTimes is one set-up's cost split by layer.
type setupTimes struct {
	generate, start, serveStart, load, warmup time.Duration
}

func (s setupTimes) total() time.Duration {
	return s.generate + s.start + s.serveStart + s.load + s.warmup
}

type warmResult struct {
	q   int
	res *storage.Batch
}

// rig is one set-up workload: database, cluster and, for served-mix, the
// serving tier with its client connections.
type rig struct {
	w        workload
	sf       float64
	seed     uint64
	db       *tpch.Database
	c        *cluster.Cluster
	srv      *serve.Server
	serveErr chan error
	clients  []*serve.Client
	warm     []warmResult
	want     map[int]digest
	times    setupTimes
}

// newRig generates the database, starts the cluster (and server), loads
// the tables and runs one unmeasured warm-up pass, timing each step.
func newRig(w workload, sf float64, seed uint64, rec *recorder) (*rig, error) {
	r := &rig{w: w, sf: sf, seed: seed}
	setupID := rec.newID()
	begin := time.Now()
	step := func(name string, d *time.Duration, f func() error) error {
		id := rec.newID()
		start := time.Now()
		err := f()
		end := time.Now()
		*d = end.Sub(start)
		rec.add(id, setupID, name, 0, 0, start, end)
		return err
	}
	err := step("tpch.generate", &r.times.generate, func() error {
		r.db = tpch.Generate(sf, seed)
		return nil
	})
	if err == nil {
		err = step("cluster.start", &r.times.start, func() (err error) {
			r.c, err = cluster.New(cluster.Config{
				Servers:          servers,
				WorkersPerServer: workersPerServer,
				Transport:        w.transport,
				Scheduling:       true,
			})
			return err
		})
	}
	if err == nil {
		err = step("storage.load", &r.times.load, func() error {
			r.c.LoadTPCH(r.db, false)
			return nil
		})
	}
	if err == nil && w.served {
		err = step("serve.start", &r.times.serveStart, r.startServer)
	}
	if err == nil {
		err = step("cluster.warmup", &r.times.warmup, r.warmUp)
	}
	rec.add(setupID, 0, "bench.setup", 0, 0, begin, time.Now())
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) startServer() error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen on loopback: %w", err)
	}
	weights := map[string]int{}
	for _, t := range tenants {
		weights[t.name] = t.weight
	}
	r.srv = serve.New(serve.Config{Cluster: r.c, SF: r.sf, Seed: r.seed, Tenants: weights, Slots: servedSlots})
	r.serveErr = make(chan error, 1)
	go func() { r.serveErr <- r.srv.Serve(lis) }()
	for _, t := range tenants {
		cl, err := serve.Dial(lis.Addr().String(), t.name)
		if err != nil {
			return fmt.Errorf("dial as %s: %w", t.name, err)
		}
		r.clients = append(r.clients, cl)
	}
	return nil
}

// warmUp runs every query once (served: once per connection, executed on
// the cluster) and keeps the results for verification.
func (r *rig) warmUp() error {
	if r.w.served {
		for _, cl := range r.clients {
			for _, q := range r.w.queries {
				res, _, err := cl.ExecWithOpts(statement(q), serve.ExecOpts{BypassResultCache: true})
				if err != nil {
					return fmt.Errorf("warm-up q%d: %w", q, err)
				}
				r.warm = append(r.warm, warmResult{q, res})
			}
		}
		return nil
	}
	for _, q := range r.w.queries {
		pq, err := queries.Build(q, queries.Params{SF: r.sf})
		if err != nil {
			return err
		}
		res, _, err := r.c.RunContext(context.Background(), pq)
		if err != nil {
			return fmt.Errorf("warm-up q%d: %w", q, err)
		}
		r.warm = append(r.warm, warmResult{q, res})
	}
	return nil
}

func statement(q int) string { return fmt.Sprintf("q%d", q) }

// verify checks the first warm-up result of every query against the
// reference interpreter and records its digest; every later result must
// reproduce that digest.
func (r *rig) verify() error {
	r.want = map[int]digest{}
	for _, wr := range r.warm {
		d := digestOf(wr.res)
		if want, ok := r.want[wr.q]; ok {
			if d != want {
				return fmt.Errorf("warm-up q%d: %w", wr.q, errWrongResult)
			}
			continue
		}
		rr, err := ref.Run(wr.q, r.db, r.sf)
		if err != nil {
			return err
		}
		if err := matchRef(wr.res, rr); err != nil {
			return fmt.Errorf("warm-up q%d differs from the reference: %w", wr.q, err)
		}
		r.want[wr.q] = d
	}
	r.warm = nil
	return nil
}

// close stops whatever the rig started, waiting for the server to exit.
func (r *rig) close() {
	for _, cl := range r.clients {
		cl.Close()
	}
	if r.srv != nil {
		r.srv.Shutdown()
		<-r.serveErr
	}
	if r.c != nil {
		r.c.Close()
	}
}

// sample is one measured operation: a query (power) or a request (served).
type sample struct {
	q       int
	latency time.Duration
	err     error
	// traced marks operations that completed while observability was on.
	traced bool

	build, compile, exec, queueWait time.Duration

	// From QueryStats (power workloads only).
	schedDelay, busy, finalize, opTime time.Duration
	morsels                            int
	opRows, opAllocs                   int64
	overlap                            float64
	wire                               uint64
	restarts                           int

	// From serve.ExecStats (served-mix only).
	planHit, resultHit bool
	total, wall        time.Duration
}

// runQuery builds and runs one query on the cluster and checks its result.
func (r *rig) runQuery(q, tid, qid int, rec *recorder) sample {
	s := sample{q: q}
	rootID, buildID := rec.newID(), rec.newID()
	t0 := time.Now()
	pq, err := queries.Build(q, queries.Params{SF: r.sf})
	t1 := time.Now()
	rec.add(buildID, rootID, "plan.build", qid, tid, t0, t1)
	s.build = t1.Sub(t0)
	if err != nil {
		s.err, s.latency = err, s.build
		return s
	}
	runID := rec.newID()
	res, st, err := r.c.RunContext(context.Background(), pq)
	t2 := time.Now()
	rec.add(runID, rootID, "cluster.run", qid, tid, t1, t2)
	rec.attach(runID, qid, st.Trace, t1)
	s.latency = t2.Sub(t0)
	if err != nil {
		s.err = err
		rec.add(rootID, 0, "bench.query", qid, tid, t0, t2)
		return s
	}
	s.fromQueryStats(&st)
	s.err = r.check(q, res, rootID, qid, tid, rec)
	rec.add(rootID, 0, "bench.query", qid, tid, t0, time.Now())
	return s
}

func (s *sample) fromQueryStats(st *cluster.QueryStats) {
	s.compile, s.exec, s.queueWait = st.Compile, st.Exec, st.QueueWait
	s.schedDelay = st.SchedulerDelay()
	s.overlap = st.MaxOverlap()
	s.wire = st.WireBytes()
	s.restarts = st.Restarts
	for _, server := range st.PipelineStats {
		for _, p := range server {
			s.busy += p.Busy
			s.finalize += p.Finalize
			s.morsels += p.Morsels
			for _, op := range p.Ops {
				s.opTime += op.Time
				s.opRows += op.RowsIn
				s.opAllocs += op.Allocs
			}
		}
	}
}

// request sends one statement over a serve connection and checks the
// result.
func (r *rig) request(cl *serve.Client, tid, q int, bypass bool, qid int, rec *recorder) sample {
	s := sample{q: q}
	rootID, execID := rec.newID(), rec.newID()
	t0 := time.Now()
	res, es, err := cl.ExecWithOpts(statement(q), serve.ExecOpts{BypassResultCache: bypass})
	t1 := time.Now()
	rec.add(execID, rootID, "serve.exec", qid, tid, t0, t1)
	s.latency = t1.Sub(t0)
	if err != nil {
		s.err = err
		rec.add(rootID, 0, "bench.request", qid, tid, t0, t1)
		return s
	}
	s.compile, s.exec, s.queueWait = es.Compile, es.Exec, es.QueueWait
	s.planHit, s.resultHit = es.PlanHit, es.ResultHit
	s.total, s.wall = es.Total, es.Wall
	s.err = r.check(q, res, rootID, qid, tid, rec)
	rec.add(rootID, 0, "bench.request", qid, tid, t0, time.Now())
	return s
}

// check compares a result's digest with the verified one.
func (r *rig) check(q int, res *storage.Batch, parent, qid, tid int, rec *recorder) error {
	id := rec.newID()
	start := time.Now()
	var err error
	if digestOf(res) != r.want[q] {
		err = fmt.Errorf("q%d: %w", q, errWrongResult)
	}
	rec.add(id, parent, "bench.verify", qid, tid, start, time.Now())
	return err
}

// modeAcc accumulates the slices a phase ran in one observability mode.
type modeAcc struct {
	wall  time.Duration
	delta counters
}

// phase is one measured run of a workload.
type phase struct {
	samples  []sample
	modes    [2]modeAcc // [0] observability off, [1] on
	heapPeak uint64
}

// activeWall is the measured time, excluding counter snapshots between
// slices.
func (p *phase) activeWall() time.Duration { return p.modes[0].wall + p.modes[1].wall }

// slicer cuts a phase into slices, each run with observability on or
// off, and adds each slice's counter deltas to its mode.
type slicer struct {
	c      *cluster.Cluster
	traced bool
	start  time.Time
	before counters
	modes  [2]modeAcc
	err    error
}

func (s *slicer) begin(traced bool) {
	hsqp.SetObservability(traced)
	s.traced = traced
	var err error
	if s.before, err = snapshotCounters(s.c); err != nil && s.err == nil {
		s.err = err
	}
	s.start = time.Now()
}

func (s *slicer) end() {
	wall := time.Since(s.start)
	after, err := snapshotCounters(s.c)
	if err != nil && s.err == nil {
		s.err = err
	}
	m := &s.modes[modeIndex(s.traced)]
	m.wall += wall
	m.delta = m.delta.add(after.sub(s.before))
}

func modeIndex(traced bool) int {
	if traced {
		return 1
	}
	return 0
}

// runOptions are the measurement settings of one run.
type runOptions struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	minOps  int
}

// runPower drives one closed-loop client through whole passes over the
// queries, each pass in a seeded shuffled order, until the time is up and
// at least minOps queries completed. In the traced run passes alternate
// between observability off and on.
func (r *rig) runPower(o runOptions, rec *recorder) (*phase, error) {
	rng := rand.New(rand.NewPCG(o.seed, 1))
	order := slices.Clone(r.w.queries)
	sl := &slicer{c: r.c}
	ph := &phase{}
	heap := startHeapSampler(heapInterval)
	start := time.Now()
	qid := 0
	for pass := 0; ; pass++ {
		traced := o.trace && pass%2 == 1
		prec := rec
		if !traced {
			prec = nil
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		sl.begin(traced)
		for _, q := range order {
			qid++
			s := r.runQuery(q, 1, qid, prec)
			s.traced = traced
			ph.samples = append(ph.samples, s)
		}
		sl.end()
		enough := time.Since(start) >= o.seconds && len(ph.samples) >= o.minOps
		if enough && (!o.trace || traced) {
			break
		}
	}
	ph.heapPeak = heap.stopAndPeak()
	hsqp.SetObservability(false)
	ph.modes = sl.modes
	return ph, sl.err
}

// runServed drives one closed-loop connection per tenant. Each draws
// statements from its own seeded sequence; every cacheEvery-th request
// may be answered from the result cache, the others bypass it. In the
// traced run observability toggles every slice.
func (r *rig) runServed(o runOptions, rec *recorder) (*phase, error) {
	// sl belongs to the toggler goroutine while it runs, and to this
	// goroutine before it starts and after it has exited.
	sl := &slicer{c: r.c}
	var traced atomic.Bool
	sl.begin(false)
	heap := startHeapSampler(heapInterval)
	deadline := time.Now().Add(o.seconds)
	var completed, qid atomic.Int64

	stop := make(chan struct{})
	var toggler sync.WaitGroup
	if o.trace {
		slice := min(max(o.seconds/10, 50*time.Millisecond), time.Second)
		toggler.Add(1)
		go func() {
			defer toggler.Done()
			t := time.NewTicker(slice)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				sl.end()
				next := !sl.traced
				sl.begin(next)
				traced.Store(next)
			}
		}()
	}

	per := make([][]sample, len(r.clients))
	var wg sync.WaitGroup
	for i, cl := range r.clients {
		wg.Add(1)
		go func(i int, cl *serve.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(o.seed, uint64(i)+2))
			for n := 0; ; n++ {
				if time.Now().After(deadline) && completed.Load() >= int64(o.minOps) {
					return
				}
				q := r.w.queries[rng.IntN(len(r.w.queries))]
				bypass := n%cacheEvery != cacheEvery-1
				prec := rec
				if !traced.Load() {
					prec = nil
				}
				s := r.request(cl, i+1, q, bypass, int(qid.Add(1)), prec)
				s.traced = traced.Load()
				per[i] = append(per[i], s)
				completed.Add(1)
			}
		}(i, cl)
	}
	wg.Wait()
	close(stop)
	toggler.Wait()
	sl.end()
	ph := &phase{heapPeak: heap.stopAndPeak(), modes: sl.modes}
	hsqp.SetObservability(false)
	for _, p := range per {
		ph.samples = append(ph.samples, p...)
	}
	return ph, sl.err
}

const heapInterval = 5 * time.Millisecond
