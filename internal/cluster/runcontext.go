package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hsqp/internal/engine"
	"hsqp/internal/obs"
	"hsqp/internal/plan"
	"hsqp/internal/sim"
	"hsqp/internal/storage"
)

// ErrServerLost marks a query failure caused by losing a server (crash,
// hang or network partition). RunContext retries such failures on the
// surviving membership; when retries are exhausted or recovery is
// impossible the surfaced error still matches errors.Is(err, ErrServerLost).
var ErrServerLost = errors.New("cluster: server lost")

// DefaultMaxRestarts bounds how many times RunContext transparently
// restarts a query after server losses before giving up.
const DefaultMaxRestarts = 2

// DefaultHeartbeatInterval/Timeout tune the cluster's failure detector.
// The timeout is deliberately generous: probes share the simulated links
// with full-size exchange messages, so a probe can wait out a deep
// head-of-line backlog on a loaded cluster without the peer being dead.
const (
	DefaultHeartbeatInterval = 10 * time.Millisecond
	DefaultHeartbeatTimeout  = time.Second
)

// runOptions is the resolved form of a RunOption list.
type runOptions struct {
	// Tenant labels the query for a Session's per-tenant admission queue;
	// the bare cluster ignores it.
	Tenant string
	// MaxRestarts bounds transparent restarts after server losses.
	// Negative means 0 (fail on the first loss).
	MaxRestarts int
}

// RunOption customizes one RunContext call.
type RunOption func(*runOptions)

// WithTenant labels the query with a tenant for weighted-fair admission.
func WithTenant(tenant string) RunOption {
	return func(o *runOptions) { o.Tenant = tenant }
}

// WithMaxRestarts overrides DefaultMaxRestarts for this query.
func WithMaxRestarts(n int) RunOption {
	return func(o *runOptions) {
		if n < 0 {
			n = 0
		}
		o.MaxRestarts = n
	}
}

// resolveRunOptions applies opts over the defaults.
func resolveRunOptions(opts ...RunOption) runOptions {
	o := runOptions{MaxRestarts: DefaultMaxRestarts}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// RunContext executes a query across the cluster and returns the
// coordinator's result rows. It is the single run entry point: ctx
// cancellation threads into the engine's per-query cancel channel (the
// whole distributed run aborts when ctx is done), and a server lost
// mid-query is detected, evicted from the membership, and the query
// transparently recompiled and restarted on the survivors — up to
// WithMaxRestarts times, reported in QueryStats.Restarts.
//
// Queries submitted concurrently share the worker pools, multiplexers and
// network schedule; the engine interleaves their morsels fairly.
func (c *Cluster) RunContext(ctx context.Context, q *plan.Query, opts ...RunOption) (*storage.Batch, QueryStats, error) {
	o := resolveRunOptions(opts...)
	restarts := 0
	var failoverStart time.Time
	for {
		res, stats, nodes, err := c.runAttempt(ctx, q)
		if err == nil {
			stats.Restarts = restarts
			if restarts > 0 {
				mFailoverSeconds.ObserveDuration(time.Since(failoverStart))
			}
			return res, stats, nil
		}
		down, isolated := lost(nodes)
		if len(down) == 0 || ctx.Err() != nil {
			// Not a membership failure (bad plan, user cancellation, …):
			// surface as-is.
			return nil, QueryStats{}, err
		}
		err = fmt.Errorf("%w: %v", ErrServerLost, err)
		if isolated {
			// The coordinator cannot reach a majority of the membership: it
			// is the isolated side of the partition and must not evict the
			// (presumably healthy) rest. In a full system the surviving
			// majority would elect a new coordinator; here the failure is
			// surfaced.
			return nil, QueryStats{}, fmt.Errorf("cluster: coordinator isolated from %d of %d servers: %w",
				len(down), len(nodes), err)
		}
		if restarts >= o.MaxRestarts {
			return nil, QueryStats{}, fmt.Errorf("cluster: giving up after %d restart(s): %w", restarts, err)
		}
		if failoverStart.IsZero() {
			failoverStart = time.Now()
		}
		for _, node := range down {
			if evictErr := c.evictFailed(node); evictErr != nil {
				return nil, QueryStats{}, fmt.Errorf("cluster: restart impossible: %v: %w", evictErr, err)
			}
		}
		restarts++
		mRestarts.Inc()
	}
}

// lost returns the nodes of an attempt's membership snapshot whose alive
// flag dropped — crashed or fenced by the failure detector — and whether
// the coordinator is the isolated side (it lost a majority).
func lost(nodes []*Node) ([]*Node, bool) {
	var out []*Node
	for _, n := range nodes {
		if !n.alive.Load() {
			out = append(out, n)
		}
	}
	return out, len(out) > len(nodes)/2
}

// runAttempt executes the query once against the current membership. It
// holds the membership read lock for the whole attempt, so the node set,
// table placements and epoch are stable underneath it.
func (c *Cluster) runAttempt(ctx context.Context, q *plan.Query) (*storage.Batch, QueryStats, []*Node, error) {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	nodes := append([]*Node(nil), c.Nodes...)

	// Every attempt gets a fresh cluster-wide id; the multiplexers route
	// messages on (QueryID, ExchangeID), so each query's exchange-id
	// sequence can start at zero — concurrent queries (and a restarted
	// attempt racing its predecessor's stragglers) never collide.
	qid := c.nextQueryID.Add(1)
	// The cancel channel exists before compilation: skew-adaptive plans
	// capture it so an aborted query unblocks send finalizes waiting for
	// remote sketches.
	cancel := make(chan struct{})
	var cancelOnce sync.Once
	abort := func() { cancelOnce.Do(func() { close(cancel) }) }
	// Thread ctx and the failure detector's fence through the scheduler's
	// cancel channel: one fence aborts every attempt on the generation.
	fenced := c.det.Load().fenced
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		select {
		case <-ctx.Done():
		case <-fenced:
		case <-watcherDone:
			return
		}
		abort()
	}()
	compileStart := time.Now()
	compiled, err := c.compileAll(nodes, q, qid, cancel)
	if err != nil {
		mQueryErrors.Inc()
		return nil, QueryStats{}, nodes, err
	}
	compileDur := time.Since(compileStart)
	defer func() {
		// Forget this query's exchanges and drop any stragglers so the
		// multiplexer maps don't grow across queries.
		for _, node := range nodes {
			node.Mux.CloseQuery(qid)
		}
	}()
	if hook := c.cfg.PhaseHook; hook != nil {
		hook(sim.PhaseCompiled)
	}

	// The failure detector probes the participants only while attempts
	// are in flight.
	c.inflight.Add(1)
	defer c.inflight.Add(-1)

	// One DAG scheduler per server node. A failing server cancels the
	// others so a bad operator aborts the query instead of deadlocking the
	// cluster on never-sent Last markers — but only this query: its cancel
	// channel is private, so concurrent queries are isolated from the
	// failure.
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(nodes))
	pstats := make([][]engine.PipelineStat, len(nodes))
	for id, node := range nodes {
		wg.Add(1)
		go func(id int, node *Node) {
			defer wg.Done()
			g := compiled[id].Graph()
			if c.cfg.Serial {
				g = engine.ChainGraph(g.Pipelines)
			}
			st, err := node.Engine.RunGraph(g, engine.RunOptions{
				Coordinator: id == 0,
				Cancel:      cancel,
			})
			pstats[id] = st
			if err != nil {
				errs[id] = err
				abort()
			}
		}(id, node)
	}
	if hook := c.cfg.PhaseHook; hook != nil {
		hook(sim.PhaseExecuting)
	}
	//lint:allow lockblock attempts hold only the read side of memMu (membership changes queue behind them by design), and the cluster's failure detector unwedges this wait by fencing dead peers (kill + PeerDown) and closing the generation's fenced channel without ever taking memMu
	wg.Wait()
	dur := time.Since(start)
	var firstErr error
	for id, err := range errs {
		if err == nil {
			continue
		}
		wrapped := fmt.Errorf("cluster: server %d: %w", id, err)
		if firstErr == nil || errors.Is(firstErr, engine.ErrCancelled) {
			// Prefer the root cause over cascade cancellations.
			if firstErr == nil || !errors.Is(err, engine.ErrCancelled) {
				firstErr = wrapped
			}
		}
	}
	if firstErr != nil {
		mQueryErrors.Inc()
		return nil, QueryStats{}, nodes, firstErr
	}

	mQueries.Inc()
	mCompileSeconds.ObserveDuration(compileDur)
	mExecSeconds.ObserveDuration(dur)
	stats := QueryStats{
		Duration:      compileDur + dur,
		Compile:       compileDur,
		Exec:          dur,
		PipelineStats: pstats,
	}
	if obs.Enabled() {
		stats.Trace = buildTrace(qid, len(nodes), compileDur, pstats)
	}
	result := compiled[0].Result.Flatten(compiled[0].Schema)
	return result, stats, nodes, nil
}

// detector is one mesh generation's failure detector. Closing stop ends
// it (done closes when it has exited); it closes fenced once it has fenced
// a lost server, which aborts every attempt on the generation.
type detector struct {
	stop, done, fenced chan struct{}
	stopOnce           sync.Once
}

// detect is the failure detector: while query attempts are in flight it
// probes every server from server 0 each heartbeat interval (two
// consecutive missed echoes make a suspect — one miss can be a probe lost
// behind a full send queue) and fences every server that is dead, frozen
// or unreachable. It resets the miss counts whenever the cluster is idle.
func (c *Cluster) detect(d *detector, nodes []*Node) {
	defer close(d.done)
	misses := make([]int, len(nodes))
	ticker := time.NewTicker(c.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
		}
		if c.inflight.Load() == 0 {
			clear(misses)
			continue
		}
		var down []*Node
		for i, node := range nodes {
			if !node.alive.Load() {
				down = append(down, node)
				continue
			}
			if i == 0 {
				continue // server 0 does not probe itself
			}
			if nodes[0].Mux.Ping(i, c.cfg.HeartbeatTimeout) {
				misses[i] = 0
				continue
			}
			select {
			case <-d.stop:
				return // the mesh is being torn down under the probe
			default:
			}
			misses[i]++
			if misses[i] >= 2 {
				down = append(down, node)
			}
		}
		if len(down) == 0 {
			continue
		}
		// Fence every suspect (STONITH): a hung or partitioned server may
		// still hold send queues full of traffic and workers blocked on
		// them; killing it unblocks everything it owns. Then tell every
		// survivor's multiplexer the peer is gone, so schedule barriers
		// with it complete instead of parking the survivors' network loops.
		for _, node := range down {
			node.kill()
		}
		for _, node := range nodes {
			if !node.alive.Load() {
				continue
			}
			for j, dead := range nodes {
				if !dead.alive.Load() {
					node.Mux.PeerDown(j)
				}
			}
		}
		close(d.fenced)
		return
	}
}
