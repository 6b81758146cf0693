package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hsqp/internal/queries"
	"hsqp/internal/ref"
	"hsqp/internal/sim"
	"hsqp/internal/tpch"
)

const chaosSF = 0.01

var (
	chaosDBOnce sync.Once
	chaosDB     *tpch.Database
)

func getChaosDB() *tpch.Database {
	chaosDBOnce.Do(func() {
		chaosDB = tpch.Generate(chaosSF, 42)
	})
	return chaosDB
}

// newChaosCluster builds a 3-server cluster with the given replica factor
// and a fast failure detector, loads the chaos database and arms fault
// against it.
func newChaosCluster(t *testing.T, replicas int, fault sim.FaultPlan) (*Cluster, *sim.FaultInjector) {
	t.Helper()
	var inj *sim.FaultInjector
	c, err := New(Config{
		Servers:           3,
		WorkersPerServer:  4,
		Transport:         RDMA,
		Scheduling:        true,
		TimeScale:         0.005, // chaos tests: network nearly free
		MorselSize:        4096,
		MessageSize:       64 * 1024,
		ReplicaFactor:     replicas,
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		PhaseHook:         func(p sim.QueryPhase) { inj.OnPhase(p) },
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	inj = sim.NewFaultInjector(c, fault)
	c.LoadTPCH(getChaosDB(), false)
	return c, inj
}

// renderRows formats a result set row by row for byte-identical
// comparison.
func renderRows(rows [][]any) string {
	var sb strings.Builder
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('|')
			}
			fmt.Fprintf(&sb, "%v", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func refRows(t *testing.T, q int) string {
	t.Helper()
	want, err := ref.Run(q, getChaosDB(), chaosSF)
	if err != nil {
		t.Fatalf("ref q%d: %v", q, err)
	}
	rows := make([][]any, len(want.Rows))
	for i, r := range want.Rows {
		rows[i] = r
	}
	return renderRows(rows)
}

// runQ12 executes Q12 and renders its result rows.
func runQ12(c *Cluster) (string, QueryStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, stats, err := c.RunContext(ctx, queries.MustBuild(12, queries.Params{SF: chaosSF}))
	if err != nil {
		return "", stats, err
	}
	rows := make([][]any, got.Rows())
	for i := range rows {
		rows[i] = got.Row(i)
	}
	return renderRows(rows), stats, nil
}

// expectFailover runs Q12 while inj's fault strikes and asserts the
// failover was transparent: the fault fired, exactly one restart, the
// given surviving membership, and a result byte-identical to the reference
// interpreter's.
func expectFailover(t *testing.T, c *Cluster, inj *sim.FaultInjector, survivors int) {
	t.Helper()
	got, stats, err := runQ12(c)
	if err != nil {
		t.Fatalf("RunContext under fault: %v", err)
	}
	if !inj.Fired() {
		t.Fatal("fault injector never fired")
	}
	if injErr := inj.Err(); injErr != nil {
		t.Fatalf("fault injection: %v", injErr)
	}
	if stats.Restarts != 1 {
		t.Fatalf("QueryStats.Restarts = %d, want 1", stats.Restarts)
	}
	if c.Servers() != survivors {
		t.Fatalf("surviving membership has %d servers, want %d", c.Servers(), survivors)
	}
	if want := refRows(t, 12); got != want {
		t.Fatalf("q12 after failover differs from reference\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// runChaosQ12 loses server 2 — a non-coordinator — once Q12 is executing,
// expects a transparent failover, and checks that the shrunk cluster keeps
// serving: a fresh run (no fault left to inject) must agree byte-for-byte
// too.
func runChaosQ12(t *testing.T, kind sim.FaultKind) {
	c, inj := newChaosCluster(t, 2, sim.FaultPlan{Kind: kind, Server: 2, Phase: sim.PhaseExecuting})
	expectFailover(t, c, inj, 2)
	got, stats, err := runQ12(c)
	if err != nil {
		t.Fatalf("post-failover run: %v", err)
	}
	if stats.Restarts != 0 {
		t.Fatalf("post-failover Restarts = %d, want 0", stats.Restarts)
	}
	if want := refRows(t, 12); got != want {
		t.Fatalf("q12 on the shrunk cluster differs from reference\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestChaosKillMidQuery(t *testing.T)      { runChaosQ12(t, sim.FaultKill) }
func TestChaosHangMidQuery(t *testing.T)      { runChaosQ12(t, sim.FaultHang) }
func TestChaosPartitionMidQuery(t *testing.T) { runChaosQ12(t, sim.FaultPartition) }

// TestChaosConcurrentHang pins that one fence aborts every in-flight
// attempt: two Q12s run concurrently, server 2 hangs once the first is
// executing, and both must come through with at most one restart each.
func TestChaosConcurrentHang(t *testing.T) {
	c, _ := newChaosCluster(t, 2, sim.FaultPlan{Kind: sim.FaultHang, Server: 2, Phase: sim.PhaseExecuting})
	var got [2]string
	var stats [2]QueryStats
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], stats[i], errs[i] = runQ12(c)
		}()
	}
	wg.Wait()
	want := refRows(t, 12)
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Fatalf("query %d differs from reference\ngot:\n%s\nwant:\n%s", i, got[i], want)
		}
	}
	if r0, r1 := stats[0].Restarts, stats[1].Restarts; r0 > 1 || r1 > 1 || r0+r1 == 0 {
		t.Fatalf("Restarts = %d, %d; want each <= 1 and at least one 1", r0, r1)
	}
	if c.Servers() != 2 {
		t.Fatalf("surviving membership has %d servers, want 2", c.Servers())
	}
}

// TestChaosAfterAddServer pins that a membership change hands the rebuilt
// mesh a live failure detector: hanging the server AddServer joined must
// be detected and failed over exactly once. (The package's leakcheck
// proves the old mesh's detector exited.)
func TestChaosAfterAddServer(t *testing.T) {
	c, inj := newChaosCluster(t, 2, sim.FaultPlan{Kind: sim.FaultHang, Server: 3, Phase: sim.PhaseExecuting})
	if _, err := c.AddServer(); err != nil {
		t.Fatalf("AddServer: %v", err)
	}
	expectFailover(t, c, inj, 3)
}

// TestChaosUnrecoverableWithoutReplicas pins the replica gate: with
// replica factor 1 a killed server's partitions exist nowhere else, so the
// restart must be refused and the error must say why.
func TestChaosUnrecoverableWithoutReplicas(t *testing.T) {
	c, _ := newChaosCluster(t, 1, sim.FaultPlan{Kind: sim.FaultKill, Server: 2, Phase: sim.PhaseExecuting})
	_, _, err := runQ12(c)
	if err == nil {
		t.Fatal("RunContext should fail: the lost partitions have no replicas")
	}
	if !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("error should name the unrecoverable table, got: %v", err)
	}
	if c.Servers() != 3 {
		t.Fatalf("failed eviction must leave the membership intact, got %d servers", c.Servers())
	}
}
