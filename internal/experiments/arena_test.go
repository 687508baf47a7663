package experiments

import (
	"testing"

	"hyperloop/internal/metrics"
	"hyperloop/internal/nvm"
	"hyperloop/internal/protocol"
)

// TestPooledVsFreshIdentical is the arena's golden test: the pooled trial
// lifecycle (devices, kernels, whole fabrics) must never move a
// virtual-time number. fig8a's trial function runs on the nil arena —
// everything allocated fresh, the reference — on a cold arena, and on an
// arena warmed by every earlier trial of every backend, and the latency
// summaries must be equal; then the same for faulted scenario trials.
func TestPooledVsFreshIdentical(t *testing.T) {
	const seed, ops = 42, 300
	backends := []Backend{BackendHyperLoop, BackendNaiveEvent, BackendNaivePolling, BackendNaivePinned}
	warm := &trialArena{}
	var warmRun runCtx
	for _, b := range backends {
		for _, size := range []int{128, 1024, 8192} {
			trial := func(ar *trialArena, rc *runCtx) metrics.Summary {
				h, err := latencyTrial(ar, seed, b, 3, ops, size, writeIssue)
				if err != nil {
					t.Fatalf("%v size %d: %v", b, size, err)
				}
				ar.endTrial(rc)
				return h.Summarize()
			}
			fresh := trial(nil, nil)
			if fresh.Count != ops {
				t.Fatalf("%v size %d: %d samples, want %d", b, size, fresh.Count, ops)
			}
			if cold := trial(&trialArena{}, nil); cold != fresh {
				t.Errorf("%v size %d: cold arena differs from fresh:\ncold:  %v\nfresh: %v", b, size, cold, fresh)
			}
			if w := trial(warm, &warmRun); w != fresh {
				t.Errorf("%v size %d: warm arena differs from fresh:\nwarm:  %v\nfresh: %v", b, size, w, fresh)
			}
		}
	}

	// Faulted trials recycle fabrics whose fault plans fired (NICs crashed
	// and restarted, QPs errored, duplicates suppressed) and devices that
	// lost power: flush-storm's crash/restart storm on every protocol, then
	// 2pc-recovery's dup+delay leg killed at the commit point (recovery
	// rolls both shards forward), twice on the warm arena. The outcome
	// (everything the findings print) must not move, and the warm arena's
	// counters must equal the cold one's — a cold arena allocates
	// everything fresh, so it is the fresh reference with its counters
	// attributed.
	faulted := func(name string, run func(ar *trialArena) (any, error)) {
		t.Helper()
		trial := func(ar *trialArena) (any, StatSink) {
			out, err := run(ar)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var rc runCtx
			ar.endTrial(&rc)
			return out, deterministicStats(rc.stats())
		}
		fresh, _ := trial(nil)
		cold, coldStats := trial(&trialArena{})
		if cold != fresh {
			t.Errorf("%s: cold arena differs from fresh:\ncold:  %+v\nfresh: %+v", name, cold, fresh)
		}
		if w, s := trial(warm); w != fresh || s != coldStats {
			t.Errorf("%s: warm arena differs from fresh:\nwarm:  %+v %+v\nfresh: %+v %+v", name, w, s, fresh, coldStats)
		}
		if coldStats.Drops+coldStats.Dups == 0 {
			t.Errorf("%s: no fault fired (%+v)", name, coldStats)
		}
	}
	for _, name := range protocol.Names() {
		faulted("flush-storm "+name, func(ar *trialArena) (any, error) {
			return stormTrial(ar, seed, name, 240)
		})
	}
	dupDelay := r2Legs[1]
	for i := 0; i < 2; i++ {
		faulted("2pc-recovery "+dupDelay.name, func(ar *trialArena) (any, error) {
			return killTrial(ar, seed, dupDelay.faults(), 2, 5, 1)
		})
	}
	// The warm arena must really have served from its pools, or the test
	// compared fresh with fresh.
	if s := warmRun.stats(); s.KernelReused == 0 || s.DeviceReused == 0 || s.FabricReused == 0 {
		t.Fatalf("warm arena reused nothing: %+v", s)
	}
}

// TestStatSinkShowsReuse pins what pooling buys: once the pools are warm,
// a fig8a run reuses devices and kernels and performs less than half the
// setup zeroing that two eager images per trial device would (a device
// allocates only the pages a trial stores into).
func TestStatSinkShowsReuse(t *testing.T) {
	prevProcs := SetParallelism(1)
	defer SetParallelism(prevProcs)

	if _, err := Run("fig8a", 1, Quick); err != nil { // warm-up
		t.Fatal(err)
	}
	_, s, err := RunStats("fig8a", 1, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if s.DeviceGets == 0 {
		t.Fatal("no device acquisitions recorded")
	}
	if s.DeviceReused == 0 {
		t.Fatalf("no devices reused across %d acquisitions", s.DeviceGets)
	}
	if s.DeviceBytesZeroed >= s.DeviceBytesDemand/2 {
		t.Fatalf("device zeroing = %d of %d demanded bytes; want < 50%%", s.DeviceBytesZeroed, s.DeviceBytesDemand)
	}
	if s.KernelReused == 0 {
		t.Fatal("no kernels reused")
	}
}

// TestArenaNoLeaks runs every experiment and claim scenario and asserts
// the trial arenas wind down to their idle state: nothing checked out
// mid-trial, every pooled kernel free of live fibers, every pooled device
// fully reset, and a second full pass keeps pool populations at the first
// pass's baseline (steady state, not growth).
func TestArenaNoLeaks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	prevProcs := SetParallelism(1)
	defer SetParallelism(prevProcs)

	runAll := func() {
		for _, name := range Names() {
			if _, err := Run(name, 7, Quick); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	checkIdle := func(pass string) (devices, kernels int64) {
		arenas.mu.Lock()
		defer arenas.mu.Unlock()
		for _, a := range arenas.all {
			if n := len(a.trialDevs) + len(a.trialKernels); n != 0 {
				t.Fatalf("%s: arena still holds %d trial objects", pass, n)
			}
			s := a.devices.Stats()
			if s.Gets != s.Puts {
				t.Fatalf("%s: %d devices acquired, %d released", pass, s.Gets, s.Puts)
			}
			for _, k := range a.kernels {
				if k.LiveFibers() != 0 {
					t.Fatalf("%s: pooled kernel has %d live fibers", pass, k.LiveFibers())
				}
				if k.PooledFibers() != 0 {
					t.Fatalf("%s: pooled kernel kept %d parked runner goroutines", pass, k.PooledFibers())
				}
			}
			a.devices.ForEachIdle(func(d *nvm.Device) {
				if d.ResidentBytes() != 0 || d.DirtyBytes() != 0 {
					t.Fatalf("%s: pooled device %q not reset (resident=%d dirty=%d)",
						pass, d.Name(), d.ResidentBytes(), d.DirtyBytes())
				}
			})
			devices += int64(a.devices.Idle())
			kernels += int64(len(a.kernels))
		}
		return devices, kernels
	}

	runAll()
	dev1, ker1 := checkIdle("first pass")
	if dev1 == 0 || ker1 == 0 {
		t.Fatalf("pools empty after a full run: devices=%d kernels=%d", dev1, ker1)
	}
	runAll()
	dev2, ker2 := checkIdle("second pass")
	if dev2 != dev1 || ker2 != ker1 {
		t.Fatalf("pool populations drifted across identical passes: devices %d->%d, kernels %d->%d",
			dev1, dev2, ker1, ker2)
	}
}
