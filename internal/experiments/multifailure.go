package experiments

import (
	"fmt"

	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/report"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
)

// Multi-failure schedule: the client NIC dies first, a replica follows one
// op-timeout later (so ops are failing for both reasons at once), and both
// restart inside the run.
const (
	mfClientDownAt = 1000 * sim.Microsecond
	mfServerDownAt = 1050 * sim.Microsecond
	mfClientUpAt   = 2000 * sim.Microsecond
	mfServerUpAt   = 2050 * sim.Microsecond
	mfTimeout      = 100 * sim.Microsecond
)

func multiFailure(rc *runCtx, seed uint64, sc Scale) (*report.Report, error) {
	ops := sc.pick(400, 2500)
	rep := &report.Report{ID: "multi-failure", Claim: "Concurrent failures never hang a blocking client: when the client NIC " +
		"and a replica NIC crash within the same in-flight window, every op " +
		"still resolves within its timeout and nothing is left in flight. " +
		"After both NICs restart, protocols whose armed state lives on the " +
		"surviving members carry writes again — while the chain, whose " +
		"head-side forwarding state died with the client NIC, stays down " +
		"until explicitly reconfigured (the partition-failover scenario " +
		"exercises exactly that repair)."}
	names := protocol.Names()
	type outcome struct{ okBefore, failedDuring, okAfter, failedAfter, drops, inflight int64 }
	outs, err := trials(rc, len(names), func(j int, ar *trialArena) (outcome, error) {
		name := names[j]
		// No retries: the scenario observes raw failures, not the retry
		// policy's ability to paper over them.
		d, err := deploy(ar, topo.Spec{Seed: seed, Faults: &rdma.FaultPlan{NICs: []rdma.NICFault{
			{Host: "client", At: sim.Time(mfClientDownAt), Down: true},
			{Host: "client", At: sim.Time(mfClientUpAt), Down: false},
			{Host: "server-1", At: sim.Time(mfServerDownAt), Down: true},
			{Host: "server-1", At: sim.Time(mfServerUpAt), Down: false},
		}}}, name, protocol.Params{OpTimeout: mfTimeout})
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", name, err)
		}
		var o outcome
		err = d.Run(60*sim.Second, driver, func(f *sim.Fiber) error {
			for i := 0; i < ops; i++ {
				err := d.group.Write(f, (i%128)*2048, 1024, false)
				now := f.Now()
				switch {
				case err == nil && now < sim.Time(mfClientDownAt):
					o.okBefore++
				case err == nil && now >= sim.Time(mfServerUpAt):
					o.okAfter++
				case err != nil && protocol.IsOpError(err):
					if now >= sim.Time(mfServerUpAt) {
						o.failedAfter++
						// A failure after both restarts stalls the closed
						// loop; give the datapath a beat instead of spinning.
						f.Sleep(20 * sim.Microsecond)
					} else {
						o.failedDuring++
					}
				case err != nil:
					return fmt.Errorf("op %d: %w", i, err)
				}
			}
			return nil
		})
		if err != nil {
			return o, fmt.Errorf("%s: %w", name, err)
		}
		o.inflight = int64(d.group.InFlight())
		d.group.Close()
		o.drops = d.Fabric.FaultStats().Drops
		return o, nil
	})
	if err != nil {
		return nil, err
	}

	table := report.NewTable("Op outcomes around a concurrent client+replica crash (1KB gWRITE)",
		report.Text("protocol"), report.Count("ok before"), report.Count("failed during"),
		report.Count("ok after"), report.Count("drops"), report.Count("in flight at end"))
	for j, name := range names {
		o := outs[j]
		table.AddRow(name, o.okBefore, o.failedDuring, o.okAfter, o.drops, o.inflight)
		rep.Check(fmt.Sprintf("%s: healthy before the crashes", name),
			o.okBefore > 0, "%d ops completed before t=%s", o.okBefore, fd(mfClientDownAt))
		rep.Check(fmt.Sprintf("%s: every op resolves during the outage", name),
			o.failedDuring > 0, "%d ops failed (none hung) while both NICs were down", o.failedDuring)
		if name == "chain" {
			// The chain head's pre-armed forwarding chains died with the
			// client NIC; in-protocol traffic cannot rebuild them. Recovery
			// is the failover protocol's job (see partition-failover), so
			// spontaneous resumption here would mean the model leaks state
			// across a crash.
			rep.Check(fmt.Sprintf("%s: head crash requires reconfiguration to resume", name),
				o.okAfter == 0, "%d ops completed after t=%s without repair (%d residual failures)",
				o.okAfter, fd(mfServerUpAt), o.failedAfter)
		} else {
			rep.Check(fmt.Sprintf("%s: datapath carries writes after both restarts", name),
				o.okAfter > 0, "%d ops completed after t=%s (%d residual failures)", o.okAfter, fd(mfServerUpAt), o.failedAfter)
		}
		rep.Check(fmt.Sprintf("%s: nothing left in flight", name),
			o.inflight == 0, "InFlight() = %d after the driver finished", o.inflight)
	}
	rep.Tables = append(rep.Tables, table)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("client NIC down [%s, %s), server-1 down [%s, %s); op timeout %s, no client retries",
			fd(mfClientDownAt), fd(mfClientUpAt), fd(mfServerDownAt), fd(mfServerUpAt), fd(mfTimeout)),
		"the driver is closed-loop, so a single hung op would stall it and trip the horizon guard")
	return rep, nil
}
