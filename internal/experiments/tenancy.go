package experiments

import (
	"fmt"

	"hyperloop/internal/metrics"
	"hyperloop/internal/protocol"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
)

// Tenancy sweep: tenant processes per replica core. The heavy point
// matches the paper's co-location (~10 bursty tenants per core plus hogs
// and periodic storms). The load itself is topo's (Spec.TenantsPerCore);
// the burst and idle means here are what the notes print.
const (
	tiCores      = 8
	tiNoiseBurst = 300 * sim.Microsecond
	tiNoiseIdle  = 2700 * sim.Microsecond
)

func tenantInterference(rc *runCtx, seed uint64, sc Scale) (*Report, error) {
	ops := sc.pick(60, 400)
	loads := []int{0, 10}
	if sc == Full {
		loads = []int{0, 2, 10}
	}
	rep := &Report{ID: "tenant-interference", Claim: "NIC offload makes replication immune to co-located tenant load: " +
		"saturating the replica CPUs with bursty multi-tenant noise leaves " +
		"every NIC-driven protocol's write latency unchanged, while the " +
		"CPU-driven baseline's tail inflates by multiples (§2.2)."}
	names := protocol.Names()
	// One trial per (protocol, load).
	hists, err := trials(rc, len(names)*len(loads), func(j int, ar *trialArena) (*metrics.Histogram, error) {
		name, perCore := names[j/len(loads)], loads[j%len(loads)]
		d, err := deploy(ar, topo.Spec{Seed: seed, Cores: tiCores, TenantsPerCore: perCore}, name, protocol.Params{
			OpTimeout:    20 * sim.Millisecond,
			MaxRetries:   1,
			RetryBackoff: 50 * sim.Microsecond,
		})
		if err != nil {
			return nil, fmt.Errorf("%s load=%d: %w", name, perCore, err)
		}
		h, err := d.runLatency(ops, func(f *sim.Fiber, i int) error {
			return d.group.Write(f, (i%128)*2048, 1024, true)
		})
		if err != nil {
			return nil, fmt.Errorf("%s load=%d: %w", name, perCore, err)
		}
		d.group.Close()
		return h, nil
	})
	if err != nil {
		return nil, err
	}

	table := metrics.NewTable("1KB durable gWRITE latency vs co-located tenant load",
		"protocol", "tenants/core", "avg", "p99", "p99 vs idle")
	for n, name := range names {
		var idleP99, loadedP99 sim.Duration
		for l, perCore := range loads {
			h := hists[n*len(loads)+l]
			p99 := sim.Duration(h.Percentile(99))
			if perCore == 0 {
				idleP99 = p99
			}
			loadedP99 = p99
			ratio := "1.0x"
			if perCore > 0 && idleP99 > 0 {
				ratio = fmt.Sprintf("%.1fx", float64(p99)/float64(idleP99))
			}
			table.AddRow(name, perCore, fd(sim.Duration(int64(h.Mean()))), fd(p99), ratio)
		}
		ratio := float64(loadedP99) / float64(idleP99)
		if protocol.TraitsOf(name).CPUDriven {
			rep.check(fmt.Sprintf("%s: CPU-driven tail inflates under tenant load", name),
				ratio >= 3, "p99 %s loaded vs %s idle (%.1fx)", fd(loadedP99), fd(idleP99), ratio)
		} else {
			rep.check(fmt.Sprintf("%s: NIC-offloaded latency unmoved by tenant load", name),
				ratio <= 1.02, "p99 %s loaded vs %s idle (%.2fx)", fd(loadedP99), fd(idleP99), ratio)
		}
	}
	rep.Tables = append(rep.Tables, table)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d closed-loop 1KB durable writes per point on %d-core replicas; heavy load = 10 bursty tenants/core (%s burst / %s idle) + %d hogs + storms",
			ops, tiCores, fd(tiNoiseBurst), fd(tiNoiseIdle), tiCores/2),
		"tenant fibers never touch the fabric, so for NIC-driven protocols the loaded run replays the idle run's wire schedule exactly",
		"CPUDriven comes from the protocol traits registry; the wake-penalty co-location model only applies to CPU-driven protocols")
	return rep, nil
}
