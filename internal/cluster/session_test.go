package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsqp/internal/engine"
	"hsqp/internal/sim"
	"hsqp/internal/storage"
)

// TestSessionWeightedDispatch pins the stride schedule exactly: with the
// one slot held, 8 queued "heavy" (weight 4) and 2 queued "light" (weight
// 1) queries run in the deterministic order h l h h h h l h h h — the
// weight-4 tenant gets 4× the dispatch share while both queue.
func TestSessionWeightedDispatch(t *testing.T) {
	var (
		mu      sync.Mutex
		order   []string
		started atomic.Int32
	)
	cfg := testConfig(2, RDMA, true)
	cfg.PhaseHook = func(p sim.QueryPhase) {
		if p != sim.PhaseCompiled {
			return
		}
		// The n-th dispatched query executes only once the n queries
		// before it have recorded their tenant, so the recorded order is
		// exactly the dispatch order.
		n := int(started.Add(1)) - 1
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
			mu.Lock()
			done := len(order) >= n
			mu.Unlock()
			if done {
				return
			}
		}
	}
	c := newTestClusterConfig(t, cfg)
	c.LoadTable("orders", testOrders(200), storage.PlacementChunked, 0)

	s := c.NewSession(SessionConfig{MaxConcurrent: 1, MaxQueued: 8, Weights: map[string]int{"heavy": 4, "light": 1}})
	defer s.Close()
	if err := s.acquire(context.Background(), "hold"); err != nil {
		t.Fatalf("hold slot: %v", err)
	}

	var wg sync.WaitGroup
	enqueue := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := s.RunContext(context.Background(), groupByQueryPlan(), WithTenant(tenant)); err != nil {
					t.Errorf("%s query: %v", tenant, err)
					return
				}
				mu.Lock()
				order = append(order, tenant[:1])
				mu.Unlock()
			}()
		}
	}
	enqueue("heavy", 8)
	waitFor(t, "heavy queries to queue", func() bool { return s.Queued() == 8 })
	enqueue("light", 2)
	waitFor(t, "light queries to queue", func() bool { return s.Queued() == 10 })

	s.release()
	wg.Wait()

	if got, want := strings.Join(order, " "), "h l h h h h l h h h"; got != want {
		t.Fatalf("dispatch order %q, want %q", got, want)
	}
	if got, want := fmt.Sprint(s.Tenants()), "[{heavy 4 0} {hold 1 0} {light 1 0}]"; got != want {
		t.Fatalf("tenants %s, want %s", got, want)
	}
}

// TestSessionUntenantedFIFO: queries without a tenant label share one
// queue, dispatch in arrival order and overflow with ErrOverloaded.
func TestSessionUntenantedFIFO(t *testing.T) {
	c := newTestCluster(t, 1, RDMA, true)
	s := c.NewSession(SessionConfig{MaxConcurrent: 1, MaxQueued: 3})
	defer s.Close()
	if err := s.acquire(context.Background(), ""); err != nil {
		t.Fatalf("hold slot: %v", err)
	}

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.acquire(context.Background(), ""); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			s.release()
		}()
		waitFor(t, "waiter to queue", func() bool { return s.Queued() == i+1 })
	}
	if err := s.acquire(context.Background(), ""); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue returned %v, want ErrOverloaded", err)
	}
	s.release()
	wg.Wait()
	if got := fmt.Sprint(order); got != "[0 1 2]" {
		t.Fatalf("dispatch order %s, want [0 1 2]", got)
	}
}

// TestSessionDirectGrantWhenUncontended: with free slots and nobody
// queued, admission returns at once, charges the tenant's pass, and a
// released slot is reusable.
func TestSessionDirectGrantWhenUncontended(t *testing.T) {
	c := newTestCluster(t, 1, RDMA, true)
	s := c.NewSession(SessionConfig{MaxConcurrent: 2})
	defer s.Close()
	for _, tenant := range []string{"a", "b"} {
		if err := s.acquire(context.Background(), tenant); err != nil {
			t.Fatalf("%s: %v", tenant, err)
		}
	}
	if s.Queued() != 0 || s.Running() != 2 {
		t.Fatalf("queued=%d running=%d, want 0/2", s.Queued(), s.Running())
	}
	for _, tenant := range []string{"a", "b"} {
		if pass := s.tenants[tenant].pass; pass == 0 {
			t.Fatalf("direct grant to %s left its pass uncharged", tenant)
		}
	}
	s.release()
	s.release()
	if err := s.acquire(context.Background(), "c"); err != nil {
		t.Fatalf("released slot not reusable: %v", err)
	}
	s.release()
}

// TestSessionTenantQueueBound: a tenant whose queue is full is rejected
// with ErrOverloaded without blocking; other tenants still queue.
func TestSessionTenantQueueBound(t *testing.T) {
	c := newTestCluster(t, 2, RDMA, true)
	c.LoadTable("orders", testOrders(200), storage.PlacementChunked, 0)
	s := c.NewSession(SessionConfig{MaxConcurrent: 1, MaxQueued: 2})
	defer s.Close()
	if err := s.acquire(context.Background(), "hold"); err != nil {
		t.Fatalf("hold slot: %v", err)
	}

	errs := make(chan error, 3)
	run := func(tenant string) {
		go func() {
			_, _, err := s.RunContext(context.Background(), groupByQueryPlan(), WithTenant(tenant))
			errs <- err
		}()
	}
	run("a")
	run("a")
	waitFor(t, "tenant a to fill its queue", func() bool { return s.Queued() == 2 })
	if _, _, err := s.RunContext(context.Background(), groupByQueryPlan(), WithTenant("a")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full tenant queue returned %v, want ErrOverloaded", err)
	}
	run("b")
	waitFor(t, "tenant b to queue", func() bool { return s.Queued() == 3 })

	s.release()
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued query: %v", err)
		}
	}
}

// TestSessionCancelWhileQueued: cancelling a queued query returns the
// engine's cancellation sentinel and frees its queue position at once —
// with MaxQueued 1, the next query queues instead of failing with
// ErrOverloaded — and leaks no execution slot.
func TestSessionCancelWhileQueued(t *testing.T) {
	c := newTestCluster(t, 2, RDMA, true)
	c.LoadTable("orders", testOrders(200), storage.PlacementChunked, 0)
	s := c.NewSession(SessionConfig{MaxConcurrent: 1, MaxQueued: 1})
	defer s.Close()
	if err := s.acquire(context.Background(), ""); err != nil {
		t.Fatalf("hold slot: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, _, err := s.RunContext(ctx, groupByQueryPlan())
		got <- err
	}()
	waitFor(t, "query to queue", func() bool { return s.Queued() == 1 })
	cancel()
	if err := <-got; !errors.Is(err, engine.ErrCancelled) {
		t.Fatalf("cancelled queued query returned %v, want engine.ErrCancelled", err)
	}
	if s.Queued() != 0 {
		t.Fatalf("cancelled query still holds a queue position: queued=%d", s.Queued())
	}

	next := make(chan error, 1)
	go func() {
		_, _, err := s.RunContext(context.Background(), groupByQueryPlan())
		next <- err
	}()
	waitFor(t, "next query to queue", func() bool { return s.Queued() == 1 || len(next) == 1 })
	select {
	case err := <-next:
		t.Fatalf("next query returned %v while the slot is held, want it queued", err)
	default:
	}
	s.release()
	if err := <-next; err != nil {
		t.Fatalf("next query: %v", err)
	}
	if s.Running() != 0 {
		t.Fatalf("slot leaked: running=%d after every query finished", s.Running())
	}
}
