package experiments

import (
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// trialArena is one trial's attribution hook. Every rack the trial builds
// takes a new kernel and a new fabric through it (it is the rack's
// topo.Alloc), and endTrial folds their counters — executed events, CQEs,
// messages, wire bytes, drops and dups — into the sink of the experiment
// run that owns the trial. trials gives each trial an arena of its own,
// so nothing is shared or reused across trials, and none of this needs
// locking.
type trialArena struct {
	kernels []*sim.Kernel
	fabrics []*rdma.Fabric
}

// Kernel returns sim.NewKernel(seed), recorded for attribution. Safe on a
// nil arena, whose kernels go unattributed, so helpers outside trials
// keep working.
func (a *trialArena) Kernel(seed uint64) *sim.Kernel {
	k := sim.NewKernel(seed)
	if a != nil {
		a.kernels = append(a.kernels, k)
	}
	return k
}

// Fabric returns rdma.NewFabric(k, cfg), recorded for attribution. Safe on
// a nil arena.
func (a *trialArena) Fabric(k *sim.Kernel, cfg rdma.Config) *rdma.Fabric {
	f := rdma.NewFabric(k, cfg)
	if a != nil {
		a.fabrics = append(a.fabrics, f)
	}
	return f
}

// endTrial attributes the finished trial's counters to rc's experiment
// run: each kernel's executed events and the fibers and parked runners it
// still holds, and each fabric's CQE/message/byte and drop/dup totals.
// Safe on a nil rc.
func (a *trialArena) endTrial(rc *runCtx) {
	var t StatSink
	for _, k := range a.kernels {
		t.SimEvents += k.Executed()
		t.LiveFibers += int64(k.LiveFibers())
		t.ParkedRunners += int64(k.PooledFibers())
	}
	for _, f := range a.fabrics {
		msgs, bytes := f.Stats()
		fs := f.FaultStats()
		t.Messages += msgs
		t.WireBytes += bytes
		t.CQEs += f.CQEs()
		t.Drops += fs.Drops
		t.Dups += fs.Dups
	}
	rc.addTrial(t)
}
