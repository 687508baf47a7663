package experiments

import (
	"sync"

	"hyperloop/internal/nvm"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// trialArena owns the reusable simulation state of one trial: pooled NVM
// devices (reset by dropping the pages they allocated), pooled
// simulation kernels (event free lists and heap capacity survive), and
// pooled rdma.Fabric objects — the whole fabric, its recycled NIC structs,
// and its payload-buffer pool, not just scratch buffers. A trial acquires
// everything through the arena, and the worker releases the whole trial
// back in one endTrial call, which also attributes the trial's counters
// (kernel events, fabric CQEs/messages/bytes, device pool work) to the
// experiment run that owns the trial.
//
// An arena is used by exactly one goroutine at a time (acquireArena /
// releaseArena hand them out), so none of this needs locking.
type trialArena struct {
	devices nvm.DevicePool
	kernels []*sim.Kernel
	fabrics []*rdma.Fabric

	trialDevs    []*nvm.Device
	trialKernels []*sim.Kernel
	trialFabrics []*rdma.Fabric

	// trial accumulates the in-flight trial's arena-side counters; devSnap
	// is the device pool's stats at the last endTrial, so the next
	// endTrial can attribute the pool's delta to its trial.
	trial   StatSink
	devSnap nvm.PoolStats
}

// Kernel returns a kernel seeded like sim.NewKernel(seed), pooled when
// possible. Safe on a nil arena (always fresh) so helpers outside the
// worker pool keep working; a nil arena's kernels go unattributed. The
// nil arena is also the fresh reference TestPooledVsFreshIdentical
// compares the pooled lifecycle against.
func (a *trialArena) Kernel(seed uint64) *sim.Kernel {
	if a == nil {
		return sim.NewKernel(seed)
	}
	a.trial.KernelGets++
	for n := len(a.kernels); n > 0; n = len(a.kernels) {
		k := a.kernels[n-1]
		a.kernels[n-1] = nil
		a.kernels = a.kernels[:n-1]
		if k.Reset(seed) {
			a.trial.KernelReused++
			a.trialKernels = append(a.trialKernels, k)
			return k
		}
	}
	a.trial.KernelFresh++
	k := sim.NewKernel(seed)
	a.trialKernels = append(a.trialKernels, k)
	return k
}

// Device returns a zeroed device, pooled by size when possible.
func (a *trialArena) Device(name string, size int) *nvm.Device {
	if a == nil {
		return nvm.NewDevice(name, size)
	}
	d := a.devices.Get(name, size)
	a.trialDevs = append(a.trialDevs, d)
	return d
}

// Fabric builds a trial's fabric on k, reusing a pooled fabric (and its
// recycled NICs and payload buffers) when one is available.
func (a *trialArena) Fabric(k *sim.Kernel, cfg rdma.Config) *rdma.Fabric {
	if a == nil {
		return rdma.NewFabric(k, cfg)
	}
	a.trial.FabricBuilds++
	var fab *rdma.Fabric
	if n := len(a.fabrics); n > 0 {
		fab = a.fabrics[n-1]
		a.fabrics[n-1] = nil
		a.fabrics = a.fabrics[:n-1]
		fab.Reset(k, cfg)
		a.trial.FabricReused++
	} else {
		fab = rdma.NewFabric(k, cfg)
	}
	a.trialFabrics = append(a.trialFabrics, fab)
	return fab
}

// endTrial releases everything the current trial acquired back to the
// arena — devices are reset (dropping only the pages they allocated) and
// pooled, idle kernels are pooled for the next Reset, fabrics are pooled
// whole — and attributes the trial's counters to rc's experiment run:
// each kernel's executed-event count, each fabric's CQE/message/byte and
// drop/dup totals, and the device pool's stat delta all land in rc's
// StatSink.
// Safe on a nil arena and a nil rc.
func (a *trialArena) endTrial(rc *runCtx) {
	if a == nil {
		return
	}
	t := a.trial
	a.trial = StatSink{}
	for i, k := range a.trialKernels {
		t.SimEvents += k.Executed()
		if k.LiveFibers() == 0 { // a kernel with live fibers cannot Reset; drop it
			a.kernels = append(a.kernels, k)
		}
		a.trialKernels[i] = nil
	}
	a.trialKernels = a.trialKernels[:0]
	for i, f := range a.trialFabrics {
		msgs, bytes := f.Stats()
		fs := f.FaultStats()
		t.Messages += msgs
		t.WireBytes += bytes
		t.CQEs += f.CQEs()
		t.Drops += fs.Drops
		t.Dups += fs.Dups
		a.fabrics = append(a.fabrics, f)
		a.trialFabrics[i] = nil
	}
	a.trialFabrics = a.trialFabrics[:0]
	for i, d := range a.trialDevs {
		a.devices.Put(d)
		a.trialDevs[i] = nil
	}
	a.trialDevs = a.trialDevs[:0]
	// The trial's Puts just ran, so the pool delta since the last endTrial
	// is exactly this trial's device work.
	cur := a.devices.Stats()
	ds := cur.Sub(a.devSnap)
	a.devSnap = cur
	t.DeviceGets += ds.Gets
	t.DevicePuts += ds.Puts
	t.DeviceFresh += ds.Fresh
	t.DeviceReused += ds.Reused
	t.DeviceBytesZeroed += ds.BytesZeroed
	t.DeviceBytesDemand += ds.BytesDemand
	rc.addTrial(t)
}

// arenas is the package-level pool of trial arenas. Workers check one out
// per trial slot, so arenas — and the device/kernel/fabric state they
// carry — are reused across experiments, not just across one experiment's
// trials.
var arenas struct {
	mu   sync.Mutex
	free []*trialArena
	all  []*trialArena
}

func acquireArena() *trialArena {
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	if n := len(arenas.free); n > 0 {
		a := arenas.free[n-1]
		arenas.free[n-1] = nil
		arenas.free = arenas.free[:n-1]
		return a
	}
	a := &trialArena{}
	arenas.all = append(arenas.all, a)
	return a
}

func releaseArena(a *trialArena, rc *runCtx) {
	a.endTrial(rc) // a worker exiting mid-trial (job error) still releases
	arenas.mu.Lock()
	arenas.free = append(arenas.free, a)
	arenas.mu.Unlock()
}
