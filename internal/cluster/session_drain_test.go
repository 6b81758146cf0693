package cluster

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hsqp/internal/sim"
	"hsqp/internal/storage"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestSessionCloseDrain pins the drain contract: Close lets the in-flight
// query run to completion, fails every queued query fast with
// ErrSessionClosed, rejects new Run calls, and leaks no goroutines.
func TestSessionCloseDrain(t *testing.T) {
	// Once armed, a query parks after compiling until the test lets it
	// execute, so query A is provably in flight while B and C queue.
	var armed atomic.Bool
	entered := make(chan struct{}, 1)
	proceed := make(chan struct{})
	cfg := testConfig(2, RDMA, true)
	cfg.PhaseHook = func(p sim.QueryPhase) {
		if p == sim.PhaseCompiled && armed.Load() {
			entered <- struct{}{}
			<-proceed
		}
	}
	c := newTestClusterConfig(t, cfg)
	c.LoadTable("orders", testOrders(500), storage.PlacementChunked, 0)

	// Warm up once so any lazily-started engine goroutines are excluded
	// from the leak baseline.
	if _, _, err := c.RunContext(context.Background(), groupByQueryPlan()); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	baseline := runtime.NumGoroutine()

	s := c.NewSession(SessionConfig{MaxConcurrent: 1})

	type outcome struct {
		stats QueryStats
		err   error
	}
	run := func(ch chan outcome) {
		_, stats, err := s.RunContext(context.Background(), groupByQueryPlan(), WithTenant("t"))
		ch <- outcome{stats, err}
	}

	// A takes the only slot and parks mid-run.
	armed.Store(true)
	aCh := make(chan outcome, 1)
	go run(aCh)
	<-entered

	// B and C queue behind it.
	bCh := make(chan outcome, 1)
	cCh := make(chan outcome, 1)
	go run(bCh)
	go run(cCh)
	waitFor(t, "B and C to queue", func() bool { return s.Queued() >= 2 })

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()

	// Queued queries fail fast with ErrSessionClosed, without waiting for A.
	for _, ch := range []chan outcome{bCh, cCh} {
		select {
		case out := <-ch:
			if !errors.Is(out.err, ErrSessionClosed) {
				t.Fatalf("queued query returned %v, want ErrSessionClosed", out.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued query did not fail fast on Close")
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a query was still in flight")
	default:
	}

	// The in-flight query completes successfully and Close waits for it.
	close(proceed)
	select {
	case out := <-aCh:
		if out.err != nil {
			t.Fatalf("in-flight query failed during drain: %v", out.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight query did not complete")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after drain")
	}

	if _, _, err := s.RunContext(context.Background(), groupByQueryPlan()); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Run after Close returned %v, want ErrSessionClosed", err)
	}
	if s.Queued() != 0 || s.Running() != 0 {
		t.Fatalf("counters after drain: queued=%d running=%d, want 0/0", s.Queued(), s.Running())
	}

	// No goroutine leak: everything the session spawned must be gone.
	waitFor(t, "goroutines to drain", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestSessionCloseFailsFIFOQueue: queries queued behind a held slot —
// untenanted and tenanted alike — fail fast with ErrSessionClosed on
// Close, Close waits for the slot holder, and releasing that slot after
// Close is plain bookkeeping.
func TestSessionCloseFailsFIFOQueue(t *testing.T) {
	orders := testOrders(200)
	c := newTestCluster(t, 2, RDMA, true)
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)

	s := c.NewSession(SessionConfig{MaxConcurrent: 1, MaxQueued: 4, Weights: map[string]int{"a": 2}})
	// Occupy the single execution slot by hand so queued queries park
	// deterministically.
	if err := s.acquire(context.Background(), ""); err != nil {
		t.Fatalf("hold slot: %v", err)
	}

	errs := make(chan error, 3)
	for _, opts := range [][]RunOption{nil, nil, {WithTenant("a")}} {
		go func() {
			_, _, err := s.RunContext(context.Background(), groupByQueryPlan(), opts...)
			errs <- err
		}()
	}
	waitFor(t, "queries to queue", func() bool { return s.Queued() >= 3 })

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("queued query returned %v, want ErrSessionClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued query did not fail fast on Close")
		}
	}
	if _, _, err := s.RunContext(context.Background(), groupByQueryPlan()); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Run after Close returned %v, want ErrSessionClosed", err)
	}
	s.release()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the held slot was released")
	}
	if s.Queued() != 0 || s.Running() != 0 {
		t.Fatalf("counters after drain: queued=%d running=%d, want 0/0", s.Queued(), s.Running())
	}
}

// TestSessionQueueWaitRecorded: a query that had to wait for admission
// reports a non-zero QueueWait, and the timing split adds up to Duration.
func TestSessionQueueWaitRecorded(t *testing.T) {
	orders := testOrders(500)
	c := newTestCluster(t, 2, RDMA, true)
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)

	s := c.NewSession(SessionConfig{MaxConcurrent: 1})
	defer s.Close()
	if err := s.acquire(context.Background(), ""); err != nil {
		t.Fatalf("hold slot: %v", err)
	}

	done := make(chan QueryStats, 1)
	go func() {
		_, stats, err := s.RunContext(context.Background(), groupByQueryPlan(), WithTenant("t"))
		if err != nil {
			t.Errorf("run: %v", err)
		}
		done <- stats
	}()
	waitFor(t, "query to queue", func() bool { return s.Queued() == 1 })
	time.Sleep(20 * time.Millisecond) // measurable admission wait
	s.release()
	stats := <-done

	if stats.QueueWait < 10*time.Millisecond {
		t.Fatalf("QueueWait = %v, want >= 10ms of held-slot wait", stats.QueueWait)
	}
	if stats.Compile <= 0 || stats.Exec <= 0 {
		t.Fatalf("timing split missing: compile=%v exec=%v", stats.Compile, stats.Exec)
	}
	if stats.Duration != stats.Compile+stats.Exec {
		t.Fatalf("Duration %v != Compile %v + Exec %v", stats.Duration, stats.Compile, stats.Exec)
	}
}
