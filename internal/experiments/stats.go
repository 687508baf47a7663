package experiments

import (
	"sync"

	"hyperloop/internal/report"
)

// StatSink accumulates the simulation counters attributed to exactly one
// experiment run. Attribution is local, not global: every trial builds
// private kernels and fabrics through its own arena, and endTrial folds
// their counters into the sink of the experiment that ran the trial. Two
// overlapped experiments therefore never scramble each other's numbers —
// each sink reads the same as it would had its experiment run alone, at
// any parallelism (TestStatAttributionUnderOverlap).
type StatSink struct {
	// Counters are the trial kernels' events and the trial fabrics'
	// totals; Drops and Dups come from rdma.Fabric.FaultStats.
	report.Counters

	// LiveFibers and ParkedRunners count the fibers still alive and the
	// runner goroutines still parked on the trial kernels when their
	// trials ended. Both are leak checks: zero in every run
	// (TestArenaNoLeaks), and no report prints them.
	LiveFibers    int64
	ParkedRunners int64
}

// add folds one trial's counters into the sink.
func (s *StatSink) add(t StatSink) {
	s.SimEvents += t.SimEvents
	s.CQEs += t.CQEs
	s.Messages += t.Messages
	s.WireBytes += t.WireBytes
	s.Drops += t.Drops
	s.Dups += t.Dups
	s.LiveFibers += t.LiveFibers
	s.ParkedRunners += t.ParkedRunners
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
