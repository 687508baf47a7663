package experiments

import "sync"

// StatSink accumulates the simulation counters attributed to exactly one
// experiment run. Attribution is local, not global: every trial owns a
// private kernel and fabric whose counters rewind when the arena checks
// them out, and endTrial folds the trial's deltas into the sink of the
// experiment that ran the trial. Two overlapped experiments therefore
// never scramble each other's numbers — each sink reads the same as it
// would had its experiment run alone (TestStatAttributionOverlapped).
//
// Deterministic fields — identical at any parallelism and any overlap:
// SimEvents, CQEs, Messages, WireBytes, Drops, Dups, and the demand-side
// arena counters (DeviceGets, DevicePuts, DeviceBytesDemand, KernelGets,
// FabricBuilds). Supply-side splits (Fresh vs Reused, BytesZeroed) depend
// on which worker's pools happened to be warm; the arena tests read them,
// no report does.
type StatSink struct {
	// SimEvents counts simulation events executed by the run's trial
	// kernels; CQEs, Messages and WireBytes are the trial fabrics' totals,
	// Drops and Dups their injected faults' (rdma.Fabric.FaultStats).
	SimEvents int64
	CQEs      int64
	Messages  int64
	WireBytes int64
	Drops     int64
	Dups      int64

	// Arena counters for the run's trials. Gets/Puts/BytesDemand count
	// what trials asked for (deterministic); Fresh/Reused/BytesZeroed
	// count how the pools happened to serve it.
	DeviceGets        int64
	DevicePuts        int64
	DeviceFresh       int64
	DeviceReused      int64
	DeviceBytesZeroed int64
	DeviceBytesDemand int64

	KernelGets   int64
	KernelFresh  int64
	KernelReused int64

	FabricBuilds int64
	FabricReused int64
}

// add folds one trial's counters into the sink.
func (s *StatSink) add(t StatSink) {
	s.SimEvents += t.SimEvents
	s.CQEs += t.CQEs
	s.Messages += t.Messages
	s.WireBytes += t.WireBytes
	s.Drops += t.Drops
	s.Dups += t.Dups
	s.DeviceGets += t.DeviceGets
	s.DevicePuts += t.DevicePuts
	s.DeviceFresh += t.DeviceFresh
	s.DeviceReused += t.DeviceReused
	s.DeviceBytesZeroed += t.DeviceBytesZeroed
	s.DeviceBytesDemand += t.DeviceBytesDemand
	s.KernelGets += t.KernelGets
	s.KernelFresh += t.KernelFresh
	s.KernelReused += t.KernelReused
	s.FabricBuilds += t.FabricBuilds
	s.FabricReused += t.FabricReused
}

// runCtx is one experiment run's identity: the sink its trials report
// into and, when the run is dispatched by the two-level scheduler, the
// shared trial-slot budget it draws workers from. A nil runCtx is valid
// everywhere and means "unattributed" (stats dropped, no shared budget) —
// the path unit tests and helpers outside Run take.
type runCtx struct {
	mu   sync.Mutex
	sink StatSink

	// sem is the cross-experiment trial budget: a worker holds one slot
	// for the duration of each trial, so the total number of in-flight
	// trials across every overlapped experiment never exceeds the -procs
	// setting. nil means the run is not sharing a budget and trials' own
	// worker bound (Parallelism) is the only limit.
	sem chan struct{}
}

// addTrial folds one finished trial's counters into the run's sink.
// Workers of the same experiment call it concurrently.
func (rc *runCtx) addTrial(t StatSink) {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	rc.sink.add(t)
	rc.mu.Unlock()
}

// stats returns a snapshot of the sink.
func (rc *runCtx) stats() StatSink {
	if rc == nil {
		return StatSink{}
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.sink
}

// acquire takes one trial slot from the shared budget (no-op without one).
func (rc *runCtx) acquire() {
	if rc != nil && rc.sem != nil {
		rc.sem <- struct{}{}
	}
}

// release returns a trial slot to the shared budget.
func (rc *runCtx) release() {
	if rc != nil && rc.sem != nil {
		<-rc.sem
	}
}
