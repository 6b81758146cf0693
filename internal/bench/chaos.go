package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/queries"
	"hsqp/internal/sim"
)

// Chaos measures per-query fault tolerance end to end: a 3-server cluster
// (replica factor 2) loses one server mid-query — killed, hung, or
// partitioned — and the cluster's failure detector fences it, the query
// evicts it and transparently restarts on the survivors. Reported per
// fault kind: the undisturbed baseline latency, the end-to-end latency of
// the run that absorbed the fault, and the restart count. A final
// elasticity phase times online AddServer/RemoveServer membership changes
// (epoch bump + mesh rebuild + re-partitioning every table).
type Chaos struct {
	SF    float64 // scale factor (default 0.01)
	Query int     // statement (default 12)
}

// ChaosOutcome is one fault kind's measurement.
type ChaosOutcome struct {
	Kind      sim.FaultKind
	Baseline  time.Duration // same query, no fault, same initial cluster
	Disturbed time.Duration // wall time including detection + restart
	Restarts  int
	Survivors int
}

// ChaosResult aggregates the experiment.
type ChaosResult struct {
	Outcomes   []ChaosOutcome
	AddServer  time.Duration // online join: rebuild + re-partition
	DropServer time.Duration // graceful removal, same work
}

func (c Chaos) defaults() Chaos {
	if c.SF <= 0 {
		c.SF = 0.01
	}
	if c.Query <= 0 {
		c.Query = 12
	}
	return c
}

func (c Chaos) newCluster(hook func(sim.QueryPhase)) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{
		Servers:           3,
		WorkersPerServer:  4,
		Transport:         cluster.RDMA,
		Scheduling:        true,
		TimeScale:         0.005,
		MorselSize:        4096,
		MessageSize:       64 * 1024,
		ReplicaFactor:     2,
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		PhaseHook:         hook,
	})
}

// Run executes the experiment. w may be nil for silent runs.
func (c Chaos) Run(w io.Writer) (ChaosResult, error) {
	c = c.defaults()
	var res ChaosResult
	db := DB(c.SF, 42)
	q := queries.MustBuild(c.Query, queries.Params{SF: c.SF})
	ctx := context.Background()

	for _, kind := range []sim.FaultKind{sim.FaultKill, sim.FaultHang, sim.FaultPartition} {
		var inj *sim.FaultInjector
		cl, err := c.newCluster(func(p sim.QueryPhase) { inj.OnPhase(p) })
		if err != nil {
			return res, err
		}
		inj = sim.NewFaultInjector(cl, sim.FaultPlan{Kind: kind, Server: 2, Phase: sim.PhaseExecuting})
		cl.LoadTPCH(db, false)

		// Baseline on the intact cluster: the injector only fires at the
		// executing phase of the *measured* run below — arm it afterwards.
		// sim.FaultInjector fires once, so run the baseline on a separate
		// uninjected cluster to keep the phases apart.
		base, err := c.newCluster(nil)
		if err != nil {
			cl.Close()
			return res, err
		}
		base.LoadTPCH(db, false)
		if _, _, err := base.RunContext(ctx, q); err != nil { // warm
			base.Close()
			cl.Close()
			return res, err
		}
		_, bstats, err := base.RunContext(ctx, q)
		base.Close()
		if err != nil {
			cl.Close()
			return res, err
		}

		t0 := time.Now()
		_, stats, err := cl.RunContext(ctx, q)
		wall := time.Since(t0)
		survivors := cl.Servers()
		cl.Close()
		if err != nil {
			return res, fmt.Errorf("chaos %v: %w", kind, err)
		}
		if stats.Restarts == 0 {
			return res, fmt.Errorf("chaos %v: query was never disturbed", kind)
		}
		res.Outcomes = append(res.Outcomes, ChaosOutcome{
			Kind:      kind,
			Baseline:  bstats.Duration,
			Disturbed: wall,
			Restarts:  stats.Restarts,
			Survivors: survivors,
		})
	}

	// Elasticity: time the online membership changes on a loaded cluster.
	cl, err := c.newCluster(nil)
	if err != nil {
		return res, err
	}
	defer cl.Close()
	cl.LoadTPCH(db, false)
	t0 := time.Now()
	id, err := cl.AddServer()
	if err != nil {
		return res, err
	}
	res.AddServer = time.Since(t0)
	if _, _, err := cl.RunContext(ctx, q); err != nil {
		return res, fmt.Errorf("post-join run: %w", err)
	}
	t0 = time.Now()
	if err := cl.RemoveServer(id); err != nil {
		return res, err
	}
	res.DropServer = time.Since(t0)
	if _, _, err := cl.RunContext(ctx, q); err != nil {
		return res, fmt.Errorf("post-removal run: %w", err)
	}

	if w != nil {
		tab := &Table{
			Title: fmt.Sprintf("Per-query fault tolerance (SF %g, q%d, 3 servers, replica factor 2)",
				c.SF, c.Query),
			Header: []string{"fault", "baseline", "with failover", "restarts", "survivors"},
		}
		for _, o := range res.Outcomes {
			tab.Add(o.Kind.String(), Dur(o.Baseline), Dur(o.Disturbed),
				fmt.Sprintf("%d", o.Restarts), fmt.Sprintf("%d", o.Survivors))
		}
		tab.Fprint(w)
		fmt.Fprintf(w, "online membership change: join %s, graceful removal %s (epoch bump + mesh rebuild + re-partition)\n",
			Dur(res.AddServer), Dur(res.DropServer))
	}
	return res, nil
}
