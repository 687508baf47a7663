package experiments

import (
	"fmt"

	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/report"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
)

// lossRates is the sweep's x-axis: per-message drop probability applied to
// every link in both directions.
var lossRates = []float64{0, 0.01, 0.025, 0.05}

func retryVsLoss(rc *runCtx, seed uint64, sc Scale) (*report.Report, error) {
	ops := sc.pick(150, 1200)
	rep := &report.Report{ID: "retry-vs-loss", Claim: "Client-level timeout/retry absorbs transient wire loss on every protocol: " +
		"a loss-free run never retries or fails an op, injected loss induces " +
		"retries, and the retry+failure burden does not shrink as loss grows."}
	names := protocol.Names()
	type point struct{ ok, failed, retried, inflight, drops int64 }
	// One trial per (protocol, loss rate).
	points, err := trials(rc, len(names)*len(lossRates), func(j int, ar *trialArena) (point, error) {
		name, loss := names[j/len(lossRates)], lossRates[j%len(lossRates)]
		var plan *rdma.FaultPlan
		if loss > 0 {
			// One wildcard rule matches every (from, to) pair, so data,
			// forwards, and acks are all equally lossy.
			plan = &rdma.FaultPlan{Links: []rdma.LinkFault{{DropProb: loss}}}
		}
		d, err := deploy(ar, topo.Spec{Seed: seed, Faults: plan}, name, protocol.Params{
			OpTimeout:    200 * sim.Microsecond,
			MaxRetries:   3,
			RetryBackoff: 50 * sim.Microsecond,
		})
		if err != nil {
			return point{}, fmt.Errorf("%s loss=%v: %w", name, loss, err)
		}
		var p point
		err = d.Run(60*sim.Second, driver, func(f *sim.Fiber) error {
			for i := 0; i < ops; i++ {
				err := d.group.Write(f, (i%128)*2048, 1024, true)
				switch {
				case err == nil:
					p.ok++
				case protocol.IsOpError(err):
					p.failed++
				default:
					return fmt.Errorf("op %d: %w", i, err)
				}
			}
			return nil
		})
		if err != nil {
			return point{}, fmt.Errorf("%s loss=%v: %w", name, loss, err)
		}
		p.retried = d.group.Retried()
		p.inflight = int64(d.group.InFlight())
		d.group.Close()
		p.drops = d.Fabric.FaultStats().Drops
		return p, nil
	})
	if err != nil {
		return nil, err
	}

	table := report.NewTable("Retry cost vs injected wire loss (1KB durable gWRITE)",
		report.Text("protocol"), report.Percent("loss", 1), report.Count("ok"), report.Count("failed"),
		report.Count("retried"), report.Count("drops"))
	for n, name := range names {
		burden := make([]int64, 0, len(lossRates))
		for l, loss := range lossRates {
			p := points[n*len(lossRates)+l]
			table.AddRow(name, loss*100, p.ok, p.failed, p.retried, p.drops)
			burden = append(burden, p.retried+p.failed)
			if p.inflight != 0 {
				rep.Check(fmt.Sprintf("%s: ops quiesce at %.1f%% loss", name, loss*100),
					false, "%d ops still in flight after the driver finished", p.inflight)
			}
		}
		// Three checks per protocol: clean baseline, loss bites, and the
		// burden trends upward (compared half-vs-half so one lucky point
		// cannot flip the verdict).
		rep.Check(fmt.Sprintf("%s: loss-free run is retry-free", name),
			burden[0] == 0, "retried+failed = %d at 0%% loss", burden[0])
		last := burden[len(burden)-1]
		rep.Check(fmt.Sprintf("%s: %.1f%% loss induces retries", name, lossRates[len(lossRates)-1]*100),
			last > 0, "retried+failed = %d", last)
		half := len(burden) / 2
		var lo, hi int64
		for i, b := range burden {
			if i < half {
				lo += b
			} else {
				hi += b
			}
		}
		rep.Check(fmt.Sprintf("%s: burden grows with loss", name),
			hi >= lo, "upper-half burden %d vs lower-half %d", hi, lo)
	}
	rep.Tables = append(rep.Tables, table)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d closed-loop 1KB durable writes per point; op timeout 200µs, ≤3 retries, 50µs backoff", ops),
		"drops count transmit-side losses in both directions, so ack loss also charges the op that must retry")
	return rep, nil
}
