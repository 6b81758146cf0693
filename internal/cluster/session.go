package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"hsqp/internal/engine"
	"hsqp/internal/obs"
	"hsqp/internal/plan"
	"hsqp/internal/storage"
)

// ErrOverloaded is returned by Session.RunContext when every execution
// slot is busy and the query's tenant queue is full: the caller should
// back off and retry instead of piling more work onto a saturated cluster.
var ErrOverloaded = errors.New("cluster: session overloaded: admission queue full")

// ErrSessionClosed is returned by Session.RunContext after Close, and by
// queries still queued when Close is called: a draining session fails its
// queue fast instead of starting new work.
var ErrSessionClosed = errors.New("cluster: session closed")

// SessionConfig tunes a Session's admission control.
type SessionConfig struct {
	// MaxConcurrent is how many queries may execute on the cluster at once
	// through this session. Zero means DefaultMaxConcurrent.
	MaxConcurrent int
	// MaxQueued bounds how many queries of one tenant may wait for a slot.
	// A query arriving when MaxConcurrent are running and its tenant has
	// MaxQueued waiting fails fast with ErrOverloaded. Zero means
	// 4×MaxConcurrent; negative means no queue (immediate rejection when
	// slots are busy).
	MaxQueued int
	// Weights maps tenant (the WithTenant label) → stride-scheduling
	// weight. Tenants missing from the map, including the "" tenant of
	// unlabelled queries, get weight 1.
	Weights map[string]int
}

// DefaultMaxConcurrent is the default number of in-flight queries per
// session.
const DefaultMaxConcurrent = 4

func (cfg SessionConfig) withDefaults() SessionConfig {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	switch {
	case cfg.MaxQueued == 0:
		cfg.MaxQueued = 4 * cfg.MaxConcurrent
	case cfg.MaxQueued < 0:
		cfg.MaxQueued = 0
	}
	return cfg
}

// Session executes queries concurrently on one cluster with bounded,
// weighted-fair admission: at most MaxConcurrent queries run at a time,
// each tenant has at most MaxQueued more waiting, and anything beyond that
// is rejected with ErrOverloaded so overload degrades into queueing (then
// fast rejection) instead of thrashing the worker pools.
//
// Free slots are handed out by stride scheduling. Every tenant carries a
// virtual-time pass; dispatching one of its queries advances the pass by
// strideScale/weight, and the next free slot goes to the queued tenant
// with the smallest pass. A weight-4 tenant therefore receives 4× the
// dispatch share of a weight-1 tenant while both queue, and an idle tenant
// re-joins at the current virtual time instead of cashing in its idle
// period as a burst. Within one tenant queries dispatch FIFO, so a session
// whose queries carry no tenant label is a plain FIFO.
//
// A Session is safe for concurrent use by many goroutines — it is the
// "millions of users" front door.
type Session struct {
	c   *Cluster
	cfg SessionConfig

	// closing is closed by Close so queries still waiting for a slot fail
	// fast with ErrSessionClosed while in-flight queries run to completion.
	closing chan struct{}
	wg      sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	free    int // execution slots not granted to any query
	queued  int // queries waiting across all tenant queues
	vtime   uint64
	tenants map[string]*tenantQueue
}

const strideScale = 1 << 20

type tenantQueue struct {
	name   string
	weight int
	stride uint64
	pass   uint64
	queue  []*waiter
}

// waiter is one queued query. The dispatcher sets granted and closes
// ready under Session.mu, handing the waiter an execution slot.
type waiter struct {
	ready   chan struct{}
	granted bool
}

// NewSession creates a session on the cluster.
func (c *Cluster) NewSession(cfg SessionConfig) *Session {
	cfg = cfg.withDefaults()
	s := &Session{
		c:       c,
		cfg:     cfg,
		closing: make(chan struct{}),
		free:    cfg.MaxConcurrent,
		tenants: map[string]*tenantQueue{},
	}
	for name := range cfg.Weights {
		s.tenantLocked(name)
	}
	return s
}

// Config returns the session's effective (defaulted) configuration.
func (s *Session) Config() SessionConfig { return s.cfg }

// Queued reports how many queries are waiting for an execution slot.
func (s *Session) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// Running reports how many queries hold an execution slot right now.
func (s *Session) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.MaxConcurrent - s.free
}

// TenantQueue is one tenant's admission state in a Session.
type TenantQueue struct {
	Tenant string
	Weight int
	Queued int
}

// Tenants reports every tenant the session has admitted or has a weight
// for, sorted by name.
func (s *Session) Tenants() []TenantQueue {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantQueue, 0, len(s.tenants))
	for _, t := range s.tenants {
		//lint:allow wiredeterminism sorted below by tenant name, the unique map key, so the comparator is total
		out = append(out, TenantQueue{Tenant: t.name, Weight: t.weight, Queued: len(t.queue)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// RunContext executes one query through the session's admission control.
// It blocks while the query is queued or running and returns the
// coordinator's result rows; ErrOverloaded is returned immediately when
// the query's tenant queue is full. ctx cancellation aborts the query
// whether it is still queued or already executing; WithTenant selects
// whose admission queue the query waits in. The returned QueryStats
// records the admission wait in QueueWait.
func (s *Session) RunContext(ctx context.Context, q *plan.Query, opts ...RunOption) (*storage.Batch, QueryStats, error) {
	queued := time.Now()
	if err := s.acquire(ctx, resolveRunOptions(opts...).Tenant); err != nil {
		return nil, QueryStats{}, err
	}
	defer s.release()
	wait := time.Since(queued)
	mQueueWaitSeconds.ObserveDuration(wait)

	res, stats, err := s.c.RunContext(ctx, q, opts...)
	stats.QueueWait = wait
	if stats.Trace != nil {
		// Make room for the admission phase at the front of the timeline
		// so the trace shows the full serving-path latency split.
		stats.Trace.Shift(wait)
		stats.Trace.Add(obs.Span{
			Name: "queue", Cat: "queue",
			PID: stats.Trace.ControlPID, TID: 0,
			Start: 0, Dur: wait,
		})
	}
	return res, stats, err
}

// acquire waits for an execution slot for the tenant; on success the
// caller owns the slot and must call release. A close of the session fails
// queued waiters fast; a query cancel while queued surfaces the same
// sentinel as a cancel during execution, so errors.Is(err,
// engine.ErrCancelled) works regardless of which phase the cancellation
// raced with. Either way the waiter leaves its queue at once.
func (s *Session) acquire(ctx context.Context, tenant string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	t := s.tenantLocked(tenant)
	if s.free > 0 && s.queued == 0 {
		// Uncontended: take a slot directly, charging the tenant's pass so
		// the share accounting stays truthful when contention starts.
		s.grantLocked(t)
		s.wg.Add(1)
		s.mu.Unlock()
		return nil
	}
	if len(t.queue) >= s.cfg.MaxQueued {
		s.mu.Unlock()
		return ErrOverloaded
	}
	// Joining the queue from idle resets the pass to the current virtual
	// time (no bursting on stale credit).
	if len(t.queue) == 0 && t.pass < s.vtime {
		t.pass = s.vtime
	}
	w := &waiter{ready: make(chan struct{})}
	t.queue = append(t.queue, w)
	s.queued++
	mSessionQueued.Add(1)
	s.wg.Add(1)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
	case <-s.closing:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.granted {
		// The dispatcher raced the wake-up. A slot granted before Close
		// runs like any in-flight query; a cancelled query passes its slot
		// on.
		if ctx.Err() == nil {
			return nil
		}
		s.releaseLocked()
	} else {
		t.queue = slices.DeleteFunc(t.queue, func(x *waiter) bool { return x == w })
		s.queued--
		mSessionQueued.Add(-1)
	}
	s.wg.Done()
	if s.closed {
		return ErrSessionClosed
	}
	return fmt.Errorf("cluster: query cancelled while queued: %w", engine.ErrCancelled)
}

// release returns an execution slot granted by acquire.
func (s *Session) release() {
	s.mu.Lock()
	s.releaseLocked()
	s.mu.Unlock()
	s.wg.Done()
}

// releaseLocked frees a slot and hands it to the queued tenant with the
// smallest pass (ties broken by name for determinism). A closed session
// dispatches nothing: its waiters are leaving with ErrSessionClosed.
func (s *Session) releaseLocked() {
	s.free++
	mSessionRunning.Add(-1)
	if s.closed || s.queued == 0 {
		return
	}
	var best *tenantQueue
	for _, t := range s.tenants {
		if len(t.queue) == 0 {
			continue
		}
		if best == nil || t.pass < best.pass || (t.pass == best.pass && t.name < best.name) {
			best = t
		}
	}
	w := best.queue[0]
	best.queue[0] = nil
	best.queue = best.queue[1:]
	s.queued--
	mSessionQueued.Add(-1)
	s.grantLocked(best)
	w.granted = true
	close(w.ready)
}

// grantLocked takes a free slot for tenant t and charges its pass.
func (s *Session) grantLocked(t *tenantQueue) {
	s.free--
	mSessionRunning.Add(1)
	t.pass += t.stride
	s.vtime = t.pass
}

func (s *Session) tenantLocked(name string) *tenantQueue {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	weight := max(s.cfg.Weights[name], 1)
	t := &tenantQueue{
		name:   name,
		weight: weight,
		stride: strideScale / uint64(weight),
		pass:   s.vtime,
	}
	s.tenants[name] = t
	return t
}

// Close marks the session closed and drains it: queries already holding an
// execution slot run to completion, queries still waiting in the admission
// queue fail fast with ErrSessionClosed, and new RunContext calls are rejected.
// Close returns once every outstanding call has finished. The underlying
// cluster stays open.
func (s *Session) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closing)
	}
	s.mu.Unlock()
	s.wg.Wait()
}
