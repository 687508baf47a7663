// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.2 Fig. 2, §6.1 Figs. 8–10 + Table 2, §6.2 Figs. 11–12)
// plus ablations, over the simulated cluster, and runs the claim scenarios
// that defend its fault and durability statements (claims.go). Each entry
// returns a Report: the same rows/series the paper shows, or a claim, its
// checks and the data behind them.
package experiments

import (
	"fmt"

	"hyperloop/internal/metrics"
	"hyperloop/internal/naive"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"

	// Experiments build protocols by registry name; link the NIC-offloaded
	// implementations (naive is imported above).
	_ "hyperloop/internal/hyperloop"
)

// Backend selects the replication datapath under test.
type Backend int

// Backends under comparison.
const (
	BackendHyperLoop Backend = iota + 1
	BackendNaiveEvent
	BackendNaivePolling
	BackendNaivePinned
)

// String returns the figure-legend name.
func (b Backend) String() string {
	switch b {
	case BackendHyperLoop:
		return "HyperLoop"
	case BackendNaiveEvent:
		return "Naive-RDMA(event)"
	case BackendNaivePolling:
		return "Naive-RDMA(polling)"
	case BackendNaivePinned:
		return "Naive-RDMA(pinned)"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// datapath returns the builder newCluster uses for b: the registry
// protocol, or the baseline tuned past what the registry carries — its
// polling and pinned replica modes.
func (b Backend) datapath() protocol.Builder {
	switch b {
	case BackendHyperLoop:
		return protocol.Named("chain")
	case BackendNaivePolling:
		return naive.Builder(naive.InMode(naive.ModePolling))
	case BackendNaivePinned:
		return naive.Builder(naive.InMode(naive.ModePinned))
	default:
		return protocol.Named("naive")
	}
}

// cluster is a built deployment hosting one replication group: a client
// machine plus one storage server per replica (NICs "client" and
// "server-<i>").
type cluster struct {
	*topo.Rack
	group protocol.Protocol
}

// devExtra is each NIC's device headroom past its group's mirror: rings,
// metadata and staging buffers.
const devExtra = 4 << 20

// testbed describes the §6 deployment: replicas 16-core storage servers,
// loaded with the paper's co-location (~10 bursty tenants per core) or
// idle. ar supplies the trial's kernel/devices/fabric; nil builds fresh.
func testbed(ar *trialArena, seed uint64, replicas int, loaded bool) topo.Spec {
	spec := topo.Spec{Seed: seed, Servers: replicas, Cores: 16, Alloc: ar}
	if loaded {
		spec.TenantsPerCore = 10
	}
	return spec
}

// newCluster builds the rack spec describes and one group over all its
// servers, built by b with mirror and policy from p.
func newCluster(spec topo.Spec, b protocol.Builder, p protocol.Params) (*cluster, error) {
	spec.DevExtra = devExtra
	r, err := topo.Build(spec)
	if err != nil {
		return nil, err
	}
	c := &cluster{Rack: r}
	gs := topo.GroupSpec{Servers: topo.FirstServers(spec.Servers), Mirror: p.MirrorSize}
	if c.group, err = r.Group(gs, b, p); err != nil {
		return nil, err
	}
	return c, nil
}

// backendCluster builds the testbed with one group on the given backend.
func backendCluster(ar *trialArena, seed uint64, backend Backend, replicas, mirror int, loaded bool) (*cluster, error) {
	return newCluster(testbed(ar, seed, replicas, loaded), backend.datapath(), protocol.Params{MirrorSize: mirror})
}

// nics returns the replica NICs in member order.
func (c *cluster) nics() []*rdma.NIC { return c.Members("").Replicas }

// runLatency drives ops sequential (closed-loop) group operations and
// returns the latency histogram.
func (c *cluster) runLatency(ops int, issue func(f *sim.Fiber, i int) error) (*metrics.Histogram, error) {
	h := metrics.NewHistogram()
	err := c.Run(30*60*sim.Second, "latency-driver", func(f *sim.Fiber) error {
		for i := 0; i < ops; i++ {
			start := f.Now()
			if err := issue(f, i); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			h.RecordDuration(f.Now().Sub(start))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// runPipelined drives ops group operations with up to window in flight —
// issue posts op i and returns its completion signal — and returns the
// virtual time from the first post to the last completion.
func (c *cluster) runPipelined(ops, window int, issue func(i int) (*sim.Signal, error)) (sim.Duration, error) {
	var elapsed sim.Duration
	err := c.Run(30*60*sim.Second, "pipelined-driver", func(f *sim.Fiber) error {
		start := f.Now()
		sigs := make([]*sim.Signal, 0, window)
		for i := 0; i < ops; i++ {
			sig, err := issue(i)
			if err != nil {
				return err
			}
			sigs = append(sigs, sig)
			if len(sigs) == window {
				if err := f.Await(sigs[0]); err != nil {
					return err
				}
				sigs = sigs[1:]
			}
		}
		if err := f.AwaitAll(sigs...); err != nil {
			return err
		}
		elapsed = max(f.Now().Sub(start), sim.Nanosecond)
		return nil
	})
	return elapsed, err
}

// Report is one experiment's regenerated output. A claim scenario's report
// also carries the claim it defends and the checks that decide it.
type Report struct {
	ID     string
	Title  string
	Claim  string
	Checks []Check
	Tables []*metrics.Table
	Notes  []string

	// counters are the run's attributed totals, which findings print;
	// runWith fills them in once the run's trials have ended.
	counters StatSink
}

// String renders the report; a scenario's is its FINDINGS.md text.
func (r *Report) String() string {
	if r.Claim != "" {
		return r.findings()
	}
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += "\n" + t.String()
	}
	for _, n := range r.Notes {
		out += "\nNote: " + n + "\n"
	}
	return out
}

// Scale selects run sizes: Quick for tests/benches, Full for paper-grade
// sample counts.
type Scale int

// Scales.
const (
	Quick Scale = iota + 1
	Full
)

func (s Scale) pick(quick, full int) int {
	if s == Full {
		return full
	}
	return quick
}

// messageSizes are Fig. 8's x-axis.
var messageSizes = []int{128, 256, 512, 1024, 2048, 4096, 8192}
