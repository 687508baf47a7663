package main

import (
	"time"

	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// Group primitives, in the order the per-layer metrics name them.
const (
	gWrite = iota
	gMemcpy
	gCAS
	gFlush
	numPrims
)

var primNames = [numPrims]string{"gwrite", "gmemcpy", "gcas", "gflush"}

// span is one traced interval on both clocks. parent is the index of the
// enclosing span in the recorder's slice, or -1 for an app op; op is the
// index of the app op in the run's op stream, shared by a request's spans.
type span struct {
	Name      string `json:"name"`
	Parent    int32  `json:"parent"`
	Op        int32  `json:"op"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
	VirtStart int64  `json:"virt_start_ns"`
	VirtEnd   int64  `json:"virt_end_ns"`
}

// maxSpans bounds the spans kept in memory and written to the trace file;
// the aggregates (counts, self times) always cover every traced op.
const maxSpans = 50_000

// tap is the benchmark's view of the boundary between the stores and the
// replication group: every txn.Replicator handed to a store is wrapped in
// a tapped group that reports to one tap. It counts group calls and their
// virtual durations while counting is set (the virtual window), and
// records spans and host time while tracing is set (the traced batches of
// a -trace run). It draws no randomness and schedules no events, so the
// simulation cannot tell whether it is there.
type tap struct {
	kernel *sim.Kernel
	epoch  time.Time

	counting bool
	tracing  bool

	calls  [numPrims]int64
	virtNs [numPrims][]int64 // one sample per call while counting
	errors int64

	// While tracing: spans, and the sums the self-time split needs.
	spans      []span
	spanCount  int64
	curSpan    int32 // index of the open app-op span, -1 when none is kept
	curOp      int32
	opHostNs   int64 // host ns inside app-op spans
	opVirtNs   int64
	callHostNs int64 // host ns inside group calls (children of app ops)
	callVirtNs int64
	tracedOps  int64

	// NICs of every group built through the tap, for device counters.
	nics []*rdma.NIC
}

func newTap() *tap { return &tap{epoch: time.Now(), curSpan: -1} }

func (t *tap) hostNow() int64 { return int64(time.Since(t.epoch)) }

// tapped decorates a replication group. It embeds the full protocol
// surface so the registry can build it, but overrides only the four
// blocking primitives txn.Replicator uses.
type tapped struct {
	protocol.Protocol
	t *tap
}

// wrap puts g behind the tap and remembers the group's NICs.
func (t *tap) wrap(g protocol.Protocol, nics ...*rdma.NIC) *tapped {
	t.nics = append(t.nics, nics...)
	return &tapped{Protocol: g, t: t}
}

// tappedChain is a registered protocol that builds the chain strategy and
// wraps it in chainTap. NewShardedCluster builds its groups by registry
// name, so this is how the decorator gets between the shard stores (and
// the coordinator log) and their groups. The registry keeps a builder for
// the life of the process, so the builder looks the tap up when it runs
// instead of capturing one — and a whole deployment with it.
const tappedChain = "bench-tapped-chain"

var chainTap *tap

func init() {
	protocol.Register(tappedChain, "chain behind the benchmark's tap",
		func(env protocol.Env, p protocol.Params) (protocol.Protocol, error) {
			g, err := protocol.Build("chain", env, p)
			if err != nil {
				return nil, err
			}
			chainTap.kernel = env.Fabric.Kernel()
			return chainTap.wrap(g, append([]*rdma.NIC{env.Client}, env.Replicas...)...), nil
		})
}

// enter/leave bracket one group call.
func (t *tap) enter() (virt sim.Time, host int64) {
	if t.tracing {
		host = t.hostNow()
	}
	return t.kernel.Now(), host
}

func (t *tap) leave(prim int, virt0 sim.Time, host0 int64, err error) {
	if err != nil {
		t.errors++
	}
	if !t.counting && !t.tracing {
		return
	}
	virt1 := t.kernel.Now()
	if t.counting {
		t.calls[prim]++
		t.virtNs[prim] = append(t.virtNs[prim], int64(virt1.Sub(virt0)))
	}
	if t.tracing { // only ever set inside an app-op span
		host1 := t.hostNow()
		t.callHostNs += host1 - host0
		t.callVirtNs += int64(virt1.Sub(virt0))
		t.spanCount++
		if len(t.spans) < maxSpans {
			t.spans = append(t.spans, span{
				Name: primNames[prim], Parent: t.curSpan, Op: t.curOp,
				HostStart: host0, HostEnd: host1,
				VirtStart: int64(virt0), VirtEnd: int64(virt1),
			})
		}
	}
}

func (g *tapped) Write(f *sim.Fiber, off, size int, durable bool) error {
	v, h := g.t.enter()
	err := g.Protocol.Write(f, off, size, durable)
	g.t.leave(gWrite, v, h, err)
	return err
}

func (g *tapped) Memcpy(f *sim.Fiber, src, dst, size int, durable bool) error {
	v, h := g.t.enter()
	err := g.Protocol.Memcpy(f, src, dst, size, durable)
	g.t.leave(gMemcpy, v, h, err)
	return err
}

func (g *tapped) CAS(f *sim.Fiber, off int, old, new uint64, exec []bool) ([]uint64, error) {
	v, h := g.t.enter()
	out, err := g.Protocol.CAS(f, off, old, new, exec)
	g.t.leave(gCAS, v, h, err)
	return out, err
}

func (g *tapped) Flush(f *sim.Fiber, off, size int) error {
	v, h := g.t.enter()
	err := g.Protocol.Flush(f, off, size)
	g.t.leave(gFlush, v, h, err)
	return err
}

// beginOp opens the adapter span around one store call; endOp closes it.
// Group calls made in between become its children.
func (t *tap) beginOp(name string, op int) (virt sim.Time, host int64) {
	t.curOp = int32(op)
	t.curSpan = -1
	host = t.hostNow()
	virt = t.kernel.Now()
	if len(t.spans) < maxSpans {
		t.curSpan = int32(len(t.spans))
		t.spans = append(t.spans, span{
			Name: name, Parent: -1, Op: t.curOp,
			HostStart: host, VirtStart: int64(virt),
		})
	}
	return virt, host
}

func (t *tap) endOp(virt0 sim.Time, host0 int64) (hostNs int64) {
	host1 := t.hostNow()
	virt1 := t.kernel.Now()
	t.tracedOps++
	t.spanCount++
	t.opHostNs += host1 - host0
	t.opVirtNs += int64(virt1.Sub(virt0))
	if t.curSpan >= 0 {
		t.spans[t.curSpan].HostEnd = host1
		t.spans[t.curSpan].VirtEnd = int64(virt1)
	}
	return host1 - host0
}
