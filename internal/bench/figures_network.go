package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"hsqp/internal/fabric"
	"hsqp/internal/memory"
	"hsqp/internal/mux"
	"hsqp/internal/numa"
	"hsqp/internal/rdma"
	"hsqp/internal/tcp"
)

// Figure4 prints the memory-bus trips of the classic I/O model vs data
// direct I/O (§2.1.1): DDIO cuts 3 bus transfers per side to 1, and NUIOA
// restricts DDIO to the NIC-local socket.
func Figure4(w io.Writer) *Table {
	tab := &Table{
		Title:  "Figure 4: memory-bus traffic per payload byte (model)",
		Header: []string{"configuration", "sender reads", "sender writes", "receiver reads", "receiver writes"},
	}
	// Classic I/O: app buffer read from RAM, socket-buffer copy through
	// RAM, NIC reads from RAM; receiver mirrors it.
	tab.Add("classic I/O", "3.00", "2.00", "2.00", "3.00")
	// DDIO, NIC-local thread: the paper's PCM measurement.
	tab.Add("DDIO, NUIOA-local", "1.03", "0.00", "0.00", "1.02")
	// DDIO defeated by a NUIOA-remote network thread.
	tab.Add("DDIO, NUIOA-remote", "2.11", "0.00", "1.50", "2.33")
	tab.Fprint(w)
	return tab
}

// TransportVariant is one bar of Figure 5.
type TransportVariant struct {
	Name string
	// TCP is nil for the RDMA variant.
	TCP *tcp.Config
}

// Figure5Variants returns the paper's tuning ladder.
func Figure5Variants() []TransportVariant {
	return []TransportVariant{
		{"TCP w/o offload", &tcp.Config{Mode: tcp.ModeDatagram, Offload: false, NICLocal: true}},
		{"default TCP", &tcp.Config{Mode: tcp.ModeDatagram, Offload: true, NICLocal: true}},
		{"TCP 64k MTU", &tcp.Config{Mode: tcp.ModeConnected, NICLocal: true}},
		{"TCP interrupts", &tcp.Config{Mode: tcp.ModeConnected, NICLocal: true, TunedInterrupts: true}},
		{"default RDMA", nil},
	}
}

// Figure 5's single-stream transport microbenchmark (§2.1.2) sends
// figure5Messages full-size messages between two servers at time scale
// figure5TimeScale.
const (
	figure5Messages  = 150
	figure5TimeScale = 4
)

// Figure5Point is one variant's throughput in simulated GB/s.
type Figure5Point struct {
	Name           string
	Unidirectional float64
	Bidirectional  float64
}

// Figure5 runs every variant, unidirectional and bidirectional.
func Figure5(w io.Writer) ([]Figure5Point, error) {
	var out []Figure5Point
	tab := &Table{
		Title:  fmt.Sprintf("Figure 5: transport tuning (%d × %d KB, one stream)", figure5Messages, memory.DefaultMessageSize/1024),
		Header: []string{"variant", "unidirectional GB/s", "bidirectional GB/s"},
	}
	for _, v := range Figure5Variants() {
		uni, err := measureTransport(v, false)
		if err != nil {
			return nil, err
		}
		bidi, err := measureTransport(v, true)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure5Point{Name: v.Name, Unidirectional: uni, Bidirectional: bidi})
		tab.Add(v.Name, F2(uni), F2(bidi))
	}
	tab.Fprint(w)
	return out, nil
}

// measure runs one stream (or two opposing streams) and returns the
// per-stream payload throughput in simulated GB/s.
func measureTransport(v TransportVariant, bidi bool) (float64, error) {
	const msgSize = memory.DefaultMessageSize
	fab, err := fabric.New(fabric.Config{
		Ports:     2,
		Rate:      fabric.IB4xQDR,
		TimeScale: figure5TimeScale,
	})
	if err != nil {
		return 0, err
	}
	topo := numa.TwoSocket()
	pools := [2]*memory.Pool{
		memory.NewPool(topo, numa.AllocLocal, msgSize, nil),
		memory.NewPool(topo, numa.AllocLocal, msgSize, nil),
	}
	done := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	var counts [2]int
	var mu sync.Mutex
	endpoints := make([]mux.Transport, 2)
	for i := 0; i < 2; i++ {
		i := i
		onRecv := func(m *memory.Message) {
			m.Release()
			mu.Lock()
			counts[i]++
			c := counts[i]
			mu.Unlock()
			if c == figure5Messages {
				done[i] <- struct{}{}
			}
		}
		onInline := func(int, uint32) {}
		if v.TCP != nil {
			endpoints[i] = tcp.NewEndpoint(fab, i, *v.TCP, pools[i].Get0, onRecv, onInline)
		} else {
			endpoints[i] = rdma.NewEndpoint(fab, i, pools[i].Get0, onRecv, onInline)
		}
	}
	fab.Start()
	for _, ep := range endpoints {
		ep.Start()
	}
	defer func() {
		for _, ep := range endpoints {
			ep.Close()
		}
		fab.Stop()
	}()

	send := func(from int) {
		to := 1 - from
		for k := 0; k < figure5Messages; k++ {
			m := pools[from].Get0()
			m.Content = m.Content[:msgSize-memory.HeaderSize]
			endpoints[from].Send(to, m)
		}
	}
	start := time.Now()
	if bidi {
		go send(1)
	}
	go send(0)
	<-done[1]
	if bidi {
		<-done[0]
	}
	wall := time.Since(start)
	simSeconds := wall.Seconds() / figure5TimeScale
	perStream := float64(figure5Messages) * float64(msgSize) / simSeconds / 1e9
	return perStream, nil
}

// Figure10bPoint is one cluster size's per-server throughput (GB/s).
type Figure10bPoint struct {
	Servers              int
	AllToAll, RoundRobin float64
}

// Figure10b measures all-to-all throughput with and without round-robin
// network scheduling as the cluster grows (paper: +40% at 8 servers):
// every server sends 240 full-size messages per run.
func Figure10b(w io.Writer) ([]Figure10bPoint, error) {
	var out []Figure10bPoint
	tab := &Table{
		Title:  "Figure 10(b): all-to-all vs round-robin scheduling",
		Header: []string{"servers", "all-to-all GB/s", "round-robin GB/s", "improvement"},
	}
	for _, n := range []int{2, 4, 6, 8} {
		p := Figure10bPoint{Servers: n}
		for _, sched := range []bool{false, true} {
			// Average several trials: contention patterns vary run to run.
			var sum float64
			const trials = 3
			for t := 0; t < trials; t++ {
				thr, err := allToAll(n, 240, memory.DefaultMessageSize, 2, sched)
				if err != nil {
					return nil, err
				}
				sum += thr
			}
			thr := sum / trials
			if sched {
				p.RoundRobin = thr
			} else {
				p.AllToAll = thr
			}
		}
		out = append(out, p)
		tab.Add(fmt.Sprintf("%d", n), F2(p.AllToAll), F2(p.RoundRobin),
			fmt.Sprintf("%+.0f%%", (p.RoundRobin/p.AllToAll-1)*100))
	}
	tab.Fprint(w)
	return out, nil
}

// Figure10cPoint is one message size's throughput.
type Figure10cPoint struct {
	Size       int
	Throughput float64
}

// Figure10c sweeps the message size under scheduling on 4 servers, each
// sending 48 MB: small messages cannot amortize the synchronization
// barriers; ≥512 KB hides them completely.
func Figure10c(w io.Writer) ([]Figure10cPoint, error) {
	const servers, totalBytes = 4, 48 << 20
	var out []Figure10cPoint
	tab := &Table{
		Title:  fmt.Sprintf("Figure 10(c): throughput vs message size (%d servers, scheduled)", servers),
		Header: []string{"message size", "GB/s"},
	}
	for _, size := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 512 << 10, 2 << 20} {
		per := max(totalBytes/size, 8)
		thr, err := allToAll(servers, per, size, 2, true)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure10cPoint{Size: size, Throughput: thr})
		tab.Add(fmt.Sprintf("%dKB", size/1024), F2(thr))
	}
	tab.Fprint(w)
	return out, nil
}

// allToAll runs the raw shuffle microbenchmark through the real
// multiplexers: every server sends msgsPer messages of msgSize bytes,
// spread round-robin over all other servers, and consumes its inbound
// stream. Returns the per-server payload throughput in simulated GB/s.
func allToAll(servers, msgsPer, msgSize int, timeScale float64, scheduling bool) (float64, error) {
	fab, err := fabric.New(fabric.Config{
		Ports:     servers,
		Rate:      fabric.IB4xQDR,
		TimeScale: timeScale,
	})
	if err != nil {
		return 0, err
	}
	topo := numa.TwoSocket()
	muxes := make([]*mux.Mux, servers)
	endpoints := make([]*rdma.Endpoint, servers)
	recvs := make([]*mux.ExchangeRecv, servers)
	const exID = int32(7)
	for i := 0; i < servers; i++ {
		pool := memory.NewPool(topo, numa.AllocLocal, msgSize, nil)
		m, err := mux.New(mux.Config{
			Server:     i,
			Servers:    servers,
			Topology:   topo,
			Pool:       pool,
			Scheduling: scheduling,
		})
		if err != nil {
			return 0, err
		}
		ep := rdma.NewEndpoint(fab, i, m.RecvAlloc, m.OnRecv, m.OnInline)
		m.SetTransport(ep)
		muxes[i] = m
		endpoints[i] = ep
		recvs[i] = m.OpenExchange(0, exID, servers)
	}
	fab.Start()
	for i, m := range muxes {
		endpoints[i].Start()
		m.Start()
	}
	defer func() {
		for i, m := range muxes {
			m.Close()
			endpoints[i].Close()
		}
		fab.Stop()
	}()

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < servers; i++ {
		i := i
		pool := memory.NewPool(topo, numa.AllocLocal, msgSize, nil)
		wg.Add(1)
		go func() { // producer
			defer wg.Done()
			// Receivers assert strictly increasing per-sender sequence
			// numbers, so stamp one counter per destination.
			seq := make([]uint32, servers)
			for k := 0; k < msgsPer; k++ {
				dst := (i + 1 + k%(servers-1)) % servers
				m := pool.Get(0)
				m.Content = m.Content[:msgSize-memory.HeaderSize]
				m.ExchangeID = exID
				m.Sender = i
				m.Seq = seq[dst]
				seq[dst]++
				muxes[i].Send(dst, m)
			}
			for d := 0; d < servers; d++ {
				last := pool.Get(0)
				last.ExchangeID = exID
				last.Sender = i
				last.Last = true
				last.Seq = seq[d]
				muxes[i].Send(d, last)
			}
		}()
		wg.Add(1)
		go func() { // consumer
			defer wg.Done()
			for {
				msg := recvs[i].Recv(0)
				if msg == nil {
					return
				}
				msg.Release()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	simSeconds := wall.Seconds() / timeScale
	perServer := float64(msgsPer) * float64(msgSize) / simSeconds / 1e9
	return perServer, nil
}
