package hypotheses

import (
	"fmt"

	"hyperloop/internal/metrics"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"

	// Scenarios build protocols by registry name; link the implementations.
	_ "hyperloop/internal/hyperloop"
	_ "hyperloop/internal/naive"
)

// deployment is a built scenario cluster: a client machine plus one storage
// server per replica, hosting one group. Unlike the experiments cluster
// there is no trial arena — every scenario run builds fresh kernels, so one
// scenario can never perturb another's counters and the catalog needs no
// pooling discipline to stay deterministic.
type deployment struct {
	*topo.Rack
	group protocol.Protocol
}

// deploy builds spec's rack and the named protocol over all of its
// servers. Zero fields take the catalog's defaults: 3 servers of 8 cores, a
// 256 KB mirror.
func deploy(spec topo.Spec, proto string, p protocol.Params) (*deployment, error) {
	if spec.Servers == 0 {
		spec.Servers = 3
	}
	if spec.Cores == 0 {
		spec.Cores = 8
	}
	if p.MirrorSize == 0 {
		p.MirrorSize = 256 << 10
	}
	spec.DevExtra = devExtra
	r, err := topo.Build(spec)
	if err != nil {
		return nil, err
	}
	g, err := r.Group(topo.GroupSpec{Servers: topo.FirstServers(spec.Servers), Mirror: p.MirrorSize}, proto, p)
	if err != nil {
		return nil, err
	}
	return &deployment{Rack: r, group: g}, nil
}

// devExtra is each device's headroom past the mirror for control
// structures.
const devExtra = 4 << 20

// members returns the replica NICs in member order.
func (d *deployment) members() []*rdma.NIC { return d.Members("").Replicas }

// counters snapshots the deployment's deterministic totals.
func (d *deployment) counters() Counters { return countersOf(d.Kernel, d.Fabric) }

// countersOf snapshots the deterministic totals of one kernel and fabric.
func countersOf(k *sim.Kernel, fab *rdma.Fabric) Counters {
	msgs, bytes := fab.Stats()
	fs := fab.FaultStats()
	return Counters{
		SimEvents: k.Executed(),
		CQEs:      fab.CQEs(),
		Messages:  msgs,
		WireBytes: bytes,
		Drops:     fs.Drops,
		Dups:      fs.Dups,
	}
}

// driver names the one driver fiber a scenario runs on its deployment.
const driver = "hypothesis-driver"

// latency drives ops closed-loop durable writes of the given size and
// returns the latency histogram.
func (d *deployment) latency(ops, size int) (*metrics.Histogram, error) {
	h := metrics.NewHistogram()
	err := d.Run(60*sim.Second, driver, func(f *sim.Fiber) error {
		for i := 0; i < ops; i++ {
			off := (i % 128) * 2048
			start := f.Now()
			if err := d.group.Write(f, off, size, true); err != nil {
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

// fd formats a virtual duration for tables and observations.
func fd(d sim.Duration) string { return metrics.FormatDuration(d) }

// ft formats a virtual instant as an offset from t=0.
func ft(t sim.Time) string { return fd(t.Sub(sim.Time(0))) }
