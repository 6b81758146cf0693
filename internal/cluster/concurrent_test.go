package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"hsqp/internal/op"
	"hsqp/internal/plan"
	"hsqp/internal/queries"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

// TestMuxStateFreedAcrossQueries is the regression test for the routing
// leak: the multiplexer used to keep registered-exchange and pending
// entries forever. 100 sequential queries must leave every node's routing
// tables empty.
func TestMuxStateFreedAcrossQueries(t *testing.T) {
	orders := testOrders(500)
	c := newTestCluster(t, 3, RDMA, true)
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)

	for i := 0; i < 100; i++ {
		got := runGroupByQuery(t, c)
		if len(got) != 7 {
			t.Fatalf("query %d: %d groups, want 7", i, len(got))
		}
		for _, n := range c.Nodes {
			ex, pend := n.Mux.TableSizes()
			if ex != 0 || pend != 0 {
				t.Fatalf("after query %d: server %d holds %d exchanges, %d pending entries; want 0/0",
					i, n.ID, ex, pend)
			}
		}
	}
}

// concurrentConformanceQueries is the mixed workload of the acceptance
// test: k queries over TPC-H Q1/Q5/Q12.
func concurrentConformanceQueries(sf float64) []*plan.Query {
	var qs []*plan.Query
	for _, qn := range []int{1, 5, 12, 12, 5, 1} {
		qs = append(qs, queries.MustBuild(qn, queries.Params{SF: sf}))
	}
	return qs
}

// TestConcurrentQueriesMatchSerial: k mixed queries (Q1/Q5/Q12) executed
// concurrently over one cluster must produce byte-identical (canonical
// row order) results to the same queries run back-to-back serially.
func TestConcurrentQueriesMatchSerial(t *testing.T) {
	const sf = 0.05
	db := tpch.Generate(sf, 42)
	c := newTPCHCluster(t, false)
	c.LoadTPCH(db, false)

	qs := concurrentConformanceQueries(sf)
	want := make([][]string, len(qs))
	for i, q := range qs {
		res, _, err := c.RunContext(context.Background(), q)
		if err != nil {
			t.Fatalf("serial %s: %v", q.Name, err)
		}
		want[i] = rowSet(res)
	}

	results, _, errs := runBatch(c, concurrentConformanceQueries(sf), 4)
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent %s: %v", qs[i].Name, errs[i])
		}
		got := rowSet(res)
		if len(got) != len(want[i]) {
			t.Fatalf("query %d (%s): %d rows concurrent vs %d serial", i, qs[i].Name, len(got), len(want[i]))
		}
		for r := range got {
			if got[r] != want[i][r] {
				t.Fatalf("query %d (%s) row %d differs:\n concurrent: %s\n serial:     %s",
					i, qs[i].Name, r, got[r], want[i][r])
			}
		}
	}
}

// runBatch runs the queries concurrently through one Session, at most
// maxConcurrent at a time, and returns results, stats and errors in input
// order. The admission queue holds the whole batch, so nothing is
// rejected.
func runBatch(c *Cluster, qs []*plan.Query, maxConcurrent int) ([]*storage.Batch, []QueryStats, []error) {
	s := c.NewSession(SessionConfig{MaxConcurrent: maxConcurrent, MaxQueued: len(qs)})
	defer s.Close()
	results := make([]*storage.Batch, len(qs))
	stats := make([]QueryStats, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q *plan.Query) {
			defer wg.Done()
			results[i], stats[i], errs[i] = s.RunContext(context.Background(), q)
		}(i, q)
	}
	wg.Wait()
	return results, stats, errs
}

// TestWireCountsExactUnderConcurrency: a query's WireBytes and
// WireMessages count only its own exchange traffic, so Q12 and Q3 running
// concurrently through one Session report exactly what each reports when
// run alone. One worker per server and full-size messages make a query's
// message boundaries independent of morsel scheduling; both queries still
// share every server's pool and multiplexer.
func TestWireCountsExactUnderConcurrency(t *testing.T) {
	const sf = 0.02
	c, err := New(Config{
		Servers:          3,
		WorkersPerServer: 1,
		Transport:        RDMA,
		Scheduling:       true,
		TimeScale:        0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.LoadTPCH(tpch.Generate(sf, 42), false)
	qs := []*plan.Query{
		queries.MustBuild(12, queries.Params{SF: sf}),
		queries.MustBuild(3, queries.Params{SF: sf}),
	}
	type counts struct{ bytes, msgs uint64 }
	alone := make([]counts, len(qs))
	for i, q := range qs {
		_, st, err := c.RunContext(context.Background(), q)
		if err != nil {
			t.Fatalf("alone %s: %v", q.Name, err)
		}
		alone[i] = counts{st.WireBytes(), st.WireMessages()}
		if alone[i].bytes == 0 || alone[i].msgs == 0 {
			t.Fatalf("%s: no wire traffic counted: %+v", q.Name, alone[i])
		}
	}
	_, stats, errs := runBatch(c, qs, len(qs))
	for i, q := range qs {
		if errs[i] != nil {
			t.Fatalf("concurrent %s: %v", q.Name, errs[i])
		}
		if got := (counts{stats[i].WireBytes(), stats[i].WireMessages()}); got != alone[i] {
			t.Errorf("%s: concurrent wire counts %+v, alone %+v", q.Name, got, alone[i])
		}
	}
}

// TestSessionAdmissionControl pins the overload semantics: when every
// execution slot and every queue position is taken, RunContext fails fast with
// ErrOverloaded; once capacity frees up, queries are admitted again.
func TestSessionAdmissionControl(t *testing.T) {
	orders := testOrders(200)
	c := newTestCluster(t, 2, RDMA, true)
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)

	s := c.NewSession(SessionConfig{MaxConcurrent: 2, MaxQueued: 1})
	if got := s.Config(); got.MaxConcurrent != 2 || got.MaxQueued != 1 {
		t.Fatalf("config defaults drifted: %+v", got)
	}

	// Hold both execution slots and fill the one queue position with a
	// real query blocked behind them.
	for i := 0; i < 2; i++ {
		if err := s.acquire(context.Background(), ""); err != nil {
			t.Fatalf("hold slot %d: %v", i, err)
		}
	}
	queued := make(chan error, 1)
	go func() {
		_, _, err := s.RunContext(context.Background(), groupByQueryPlan())
		queued <- err
	}()
	waitFor(t, "query to queue", func() bool { return s.Queued() == 1 })
	if _, _, err := s.RunContext(context.Background(), groupByQueryPlan()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded session returned %v, want ErrOverloaded", err)
	}
	// A slot frees: the queued query is dispatched and runs, and with the
	// queue empty the next query is admitted and runs too.
	s.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued query after capacity freed: %v", err)
	}
	if _, _, err := s.RunContext(context.Background(), groupByQueryPlan()); err != nil {
		t.Fatalf("run after capacity freed: %v", err)
	}
	s.release()

	s.Close()
	if _, _, err := s.RunContext(context.Background(), groupByQueryPlan()); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("closed session returned %v, want ErrSessionClosed", err)
	}
}

// TestPerQueryCancellation: cancelling one query aborts it cluster-wide
// while the engine keeps serving others.
func TestPerQueryCancellation(t *testing.T) {
	orders := testOrders(2000)
	c := newTestCluster(t, 2, RDMA, true)
	c.LoadTable("orders", orders, storage.PlacementChunked, 0)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.RunContext(ctx, groupByQueryPlan())
	if err == nil || !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("pre-cancelled query returned %v, want cancellation error", err)
	}

	// The same cluster must still execute queries normally afterwards.
	got := runGroupByQuery(t, c)
	if len(got) != 7 {
		t.Fatalf("post-cancel query broken: %d groups, want 7", len(got))
	}
}

// groupByQueryPlan builds the sum-by-customer plan used by the session
// tests (same shape as runGroupByQuery).
func groupByQueryPlan() *plan.Query {
	schema := storage.NewSchema(
		storage.Field{Name: "o_key", Type: storage.TInt64},
		storage.Field{Name: "o_cust", Type: storage.TInt64},
		storage.Field{Name: "o_price", Type: storage.TDecimal},
	)
	root := plan.Scan("orders", schema).
		GroupBy([]string{"o_cust"},
			op.AggSpec{Kind: op.Sum, Name: "rev", Arg: op.Col(2), ArgType: storage.TDecimal})
	return plan.NewQuery("sum-by-cust", root)
}
