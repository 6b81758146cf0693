package serve

import (
	"sort"
	"sync"
	"time"

	"hsqp/internal/cluster"
)

// tenantSLO keeps each tenant's serving-path SLO windows: a ring of the
// most recent queue-wait and total latencies plus a served count.
// Admission itself (slots, weights, queues) is the cluster.Session's.
type tenantSLO struct {
	mu      sync.Mutex
	tenants map[string]*sloWindow
}

// latWindow is how many recent requests per tenant feed the latency
// percentiles.
const latWindow = 1024

type sloWindow struct {
	served     uint64
	queueWaits []time.Duration
	totals     []time.Duration
	ring       int
}

func newTenantSLO() *tenantSLO {
	return &tenantSLO{tenants: map[string]*sloWindow{}}
}

// Observe records one completed request's queue wait and total latency
// for the tenant's SLO stats.
func (q *tenantSLO) Observe(tenant string, queueWait, total time.Duration) {
	mQueueWait.With(tenant).ObserveDuration(queueWait)
	mTotalLatency.With(tenant).ObserveDuration(total)
	mServed.With(tenant).Inc()
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tenants[tenant]
	if !ok {
		t = &sloWindow{
			queueWaits: make([]time.Duration, 0, latWindow),
			totals:     make([]time.Duration, 0, latWindow),
		}
		q.tenants[tenant] = t
	}
	t.served++
	if len(t.totals) < latWindow {
		t.queueWaits = append(t.queueWaits, queueWait)
		t.totals = append(t.totals, total)
	} else {
		t.queueWaits[t.ring] = queueWait
		t.totals[t.ring] = total
		t.ring = (t.ring + 1) % latWindow
	}
}

// TenantStats is one tenant's serving-path SLO snapshot.
type TenantStats struct {
	Tenant   string
	Weight   int
	Served   uint64
	Queued   int
	QueueP50 time.Duration
	QueueP99 time.Duration
	TotalP50 time.Duration
	TotalP99 time.Duration
}

// Snapshot returns per-tenant stats sorted by tenant name: every tenant
// of the session's admission queues (with the weight and queue depth the
// session reports) plus every tenant with served requests. A tenant the
// session has never seen was only answered from the result cache and has
// no configured weight, so it reports the default weight 1.
func (q *tenantSLO) Snapshot(queues []cluster.TenantQueue) []TenantStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]TenantStats, 0, len(queues)+len(q.tenants))
	known := make(map[string]bool, len(queues))
	for _, tq := range queues {
		known[tq.Tenant] = true
		out = append(out, q.statsLocked(tq.Tenant, tq.Weight, tq.Queued))
	}
	for name := range q.tenants {
		if !known[name] {
			//lint:allow wiredeterminism sorted below by tenant name, the unique map key, so the comparator is total
			out = append(out, q.statsLocked(name, 1, 0))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

func (q *tenantSLO) statsLocked(tenant string, weight, queued int) TenantStats {
	ts := TenantStats{Tenant: tenant, Weight: weight, Queued: queued}
	if t := q.tenants[tenant]; t != nil {
		ts.Served = t.served
		ts.QueueP50 = quantile(t.queueWaits, 0.50)
		ts.QueueP99 = quantile(t.queueWaits, 0.99)
		ts.TotalP50 = quantile(t.totals, 0.50)
		ts.TotalP99 = quantile(t.totals, 0.99)
	}
	return ts
}

// quantile is the nearest-rank percentile over an unsorted sample window.
func quantile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p*float64(len(s))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
