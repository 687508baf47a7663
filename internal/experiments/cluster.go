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

// datapath returns what newCluster builds for b: the registry protocol,
// and — for the baseline's polling and pinned replica modes, which the
// registry does not carry — the naive.Config tuning.
func (b Backend) datapath() (proto string, tune func(*naive.Config)) {
	switch b {
	case BackendHyperLoop:
		return "chain", nil
	case BackendNaivePolling:
		return "naive", func(c *naive.Config) { c.Mode = naive.ModePolling }
	case BackendNaivePinned:
		return "naive", func(c *naive.Config) { c.Mode = naive.ModePinned }
	default:
		return "naive", nil
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

// newCluster builds the rack spec describes and one group of the named
// registry protocol over all its servers, mirror and policy from p. A
// non-nil tune instead builds the CPU-driven baseline with a config
// protocol.Params cannot express (see tunedNaive).
func newCluster(spec topo.Spec, proto string, p protocol.Params, tune func(*naive.Config)) (*cluster, error) {
	spec.DevExtra = devExtra
	r, err := topo.Build(spec)
	if err != nil {
		return nil, err
	}
	c := &cluster{Rack: r}
	gs := topo.GroupSpec{Servers: topo.FirstServers(spec.Servers), Mirror: p.MirrorSize}
	if tune != nil {
		c.group, err = tunedNaive(r, gs, p, tune)
	} else {
		c.group, err = r.Group(gs, proto, p)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// tunedNaive places a group and builds the CPU-driven baseline over it with
// tune applied to the config p translates to — a replica mode or handler
// costs the registry's "naive" cannot be asked for. The tenant wake penalty
// comes from the rack, as it does for registry-built groups.
func tunedNaive(r *topo.Rack, gs topo.GroupSpec, p protocol.Params, tune func(*naive.Config)) (*naive.Group, error) {
	env, err := r.Env(gs)
	if err != nil {
		return nil, err
	}
	p.MirrorSize = gs.Mirror
	p.WakePenalty, p.WakePenaltyProb = r.WakePenalty()
	cfg := naive.ConfigFor(p)
	tune(&cfg)
	return naive.Setup(env.Fabric, env.Client, env.Replicas, env.Scheds, cfg)
}

// backendCluster builds the testbed with one group on the given backend.
func backendCluster(ar *trialArena, seed uint64, backend Backend, replicas, mirror int, loaded bool) (*cluster, error) {
	proto, tune := backend.datapath()
	return newCluster(testbed(ar, seed, replicas, loaded), proto, protocol.Params{MirrorSize: mirror}, tune)
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
