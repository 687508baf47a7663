package experiments

import (
	"errors"
	"strings"
	"testing"

	"hyperloop/internal/chain"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
)

// TestFailedRepairReportedAsItself runs the failover crash with a spare
// that is down, so catch-up fails, writes stay paused and the outage
// writer gives up after its 1s budget. The run must report the repair's
// failure, not the writer giving up on the paused chain.
func TestFailedRepairReportedAsItself(t *testing.T) {
	d, err := deploy(nil, topo.Spec{Seed: 1, Faults: &rdma.FaultPlan{
		NICs: []rdma.NICFault{{Host: "server-1", At: sim.Time(failoverCrashAt), Down: true}},
	}}, "chain", failoverParams)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newOutage(d)
	if err != nil {
		t.Fatal(err)
	}
	d.Fabric.NIC("spare").SetDown(true)
	err = w.run(600)
	if !errors.Is(err, chain.ErrTargetLost) || strings.Contains(err.Error(), "gave up") {
		t.Fatalf("err = %v, want the repair's ErrTargetLost", err)
	}
	if w.rearms != 0 || !w.mon.Paused() || w.timeouts == 0 {
		t.Fatalf("rearms=%d paused=%v timeouts=%d: want the crash seen, no rebuild and writes left paused",
			w.rearms, w.mon.Paused(), w.timeouts)
	}
}

// TestFailoverP99IsATail reads the latency table's p99 cells: each must be
// at least its phase's mean. The healthy chain's wire jitter spreads the
// writes on both sides of the mean, so a p99 below it is not the 99th
// percentile of the phase.
func TestFailoverP99IsATail(t *testing.T) {
	lat := runQuick(t, "failover").Tables[1]
	for row := range lat.Rows {
		if p99, avg := dur(lat, row, "p99"), dur(lat, row, "avg"); p99 < avg {
			t.Errorf("%v: p99 %v below the mean %v", lat.Cell(row, "phase"), p99, avg)
		}
	}
}
