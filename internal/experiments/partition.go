package experiments

import (
	"fmt"

	"hyperloop/internal/metrics"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
)

// Partition-failover schedule. The crash, the monitor and the datapath
// are failover's: the crash lands at 2ms and suspicion needs 3 missed
// 500µs heartbeats (~3.5ms). The partition opens just after the crash and
// heals long after recovery has re-established the datapath.
const (
	pfPartFrom = 2200 * sim.Microsecond
	pfPartTo   = 6000 * sim.Microsecond
	pfMaxGap   = 8 * sim.Millisecond // window must stay under this
	pfMinGap   = 2 * sim.Millisecond // and over this: the partition, not recovery, set it
	// Consecutive write failures on a freshly established datapath before
	// the client declares its reliable connection broken and re-establishes.
	pfBrokenAfter = 2
	// Writes must resume within this long of the heal: one more failed
	// attempt cycle, one re-establishment, one successful write.
	pfResumeBound = 2 * sim.Millisecond
)

func partitionFailover(rc *runCtx, seed uint64, sc Scale) (*Report, error) {
	rep := &Report{ID: "partition-failover", Claim: "A network partition that outlives failover recovery extends client " +
		"unavailability to the partition's heal time, not the recovery time: " +
		"detection, catch-up, and datapath re-setup all complete during the " +
		"partition because none of them needs the partitioned wire — but a " +
		"datapath established while the wire still drops messages is broken " +
		"by the loss (a reliable connection that loses a message is dead, as " +
		"after RC retry exhaustion), so writes resume only once the partition " +
		"heals and the datapath is re-established over the healed link."}
	// The whole scenario is one deployment, so one trial.
	if _, err := trials(rc, 1, func(_ int, ar *trialArena) (*Report, error) {
		return rep, partitionTrial(ar, rep, seed, sc.pick(300, 2000))
	}); err != nil {
		return nil, err
	}
	return rep, nil
}

func partitionTrial(ar *trialArena, rep *Report, seed uint64, ops int) error {
	d, err := deploy(ar, topo.Spec{Seed: seed, Faults: &rdma.FaultPlan{
		NICs: []rdma.NICFault{{Host: "server-1", At: sim.Time(failoverCrashAt), Down: true}},
		// Sever client↔head in both directions for the whole recovery.
		Links: []rdma.LinkFault{
			{From: "client", To: "server-0", PartitionFrom: sim.Time(pfPartFrom), PartitionUntil: sim.Time(pfPartTo)},
			{From: "server-0", To: "client", PartitionFrom: sim.Time(pfPartFrom), PartitionUntil: sim.Time(pfPartTo)},
		},
	}}, "chain", failoverParams)
	if err != nil {
		return err
	}
	// Catch-up reads a healthy member's memory over the storage-side
	// interconnect (the chain package models it off the client fabric), so
	// the client-side partition cannot delay it. Re-arming is remote
	// work-request manipulation posted directly into member rings by the
	// control path — no wire round-trips — so it succeeds mid-partition;
	// whether the new datapath *survives* depends on the wire no longer
	// eating messages.
	w, err := newOutage(d)
	if err != nil {
		return err
	}
	consecFails := 0
	w.attempt = func(_, _ sim.Time, err error) error {
		if err == nil {
			consecFails = 0
			return nil
		}
		// After the first repair, repeated failures on a fresh datapath
		// mean the partition broke it: losing even one message
		// desynchronizes the pre-posted chains (real RC would exhaust
		// retries and error the QP). Re-establish and try again — this
		// converges once the wire heals.
		if w.repair.Resumed > 0 {
			consecFails++
			if consecFails >= pfBrokenAfter {
				consecFails = 0
				if err := w.rearm(); err != nil {
					return fmt.Errorf("re-establish: %w", err)
				}
			}
		}
		return nil
	}
	if err := w.run(ops); err != nil {
		return err
	}
	fs := d.Fabric.FaultStats()
	tResetup, firstOKAfter := w.repair.Resumed, w.firstOKAfter
	resetups, tLastResetup := w.rearms, w.lastRearm
	window := firstOKAfter.Sub(w.lastOKBefore)

	timeline := metrics.NewTable("Recovery vs partition timeline (virtual time)", "event", "t")
	timeline.AddRow("NIC crash injected (server-1)", fd(failoverCrashAt))
	timeline.AddRow("client↔server-0 partition opens", fd(pfPartFrom))
	timeline.AddRow(fmt.Sprintf("failure suspected, writes paused (%d beats @ %s)", failoverMissed, fd(failoverBeat)), ft(w.repair.Suspected))
	timeline.AddRow("failover recovery done, datapath armed, writes resumed", ft(tResetup))
	timeline.AddRow("partition heals", fd(pfPartTo))
	timeline.AddRow(fmt.Sprintf("final datapath re-establishment (%d total)", resetups), ft(tLastResetup))
	timeline.AddRow("last good write before outage", ft(w.lastOKBefore))
	timeline.AddRow("first good write after outage", ft(firstOKAfter))
	timeline.AddRow("unavailability window", fd(window))
	rep.Tables = append(rep.Tables, timeline)

	rep.check("recovery completes during the partition",
		tResetup > 0 && tResetup < sim.Time(pfPartTo),
		"failover recovery re-armed the datapath at %s, partition heals at %s", ft(tResetup), fd(pfPartTo))
	rep.check("writes stay down until the partition heals",
		firstOKAfter >= sim.Time(pfPartTo),
		"first good write at %s, heal at %s, %d timed-out attempts in between", ft(firstOKAfter), fd(pfPartTo), w.timeouts)
	rep.check("a partitioned datapath is broken, not paused",
		resetups >= 2 && tLastResetup > tResetup,
		"%d datapath establishments: every one armed while the wire dropped messages was poisoned by the loss", resetups)
	rep.check("writes resume promptly once the wire heals",
		firstOKAfter.Sub(sim.Time(pfPartTo)) < pfResumeBound,
		"first good write %s after the heal (bound %s)", fd(firstOKAfter.Sub(sim.Time(pfPartTo))), fd(pfResumeBound))
	rep.check("the partition, not recovery, sets the unavailability window",
		window > pfMinGap && window < pfMaxGap,
		"window %s (plain failover recovers in ~1.5ms; bound %s)", fd(window), fd(pfMaxGap))
	rep.check("the partition dropped live traffic",
		fs.Drops > 0, "%d messages dropped", fs.Drops)

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("partition [%s, %s) outlives suspicion (+catch-up +re-setup) by design; %d write attempts timed out, %d datapath establishments",
			fd(pfPartFrom), fd(pfPartTo), w.timeouts, resetups),
		"heartbeats and catch-up are the application's recovery protocol and run off the partitioned wire; only the client datapath is cut",
		"the fabric models message loss as permanent (RC retry exhaustion): one dropped metadata SEND shifts every later receive against its pre-posted seq-keyed chain slots, so the group forwards stale staging bytes and wedges — exactly why real RC moves a lossy QP to the error state and forces re-establishment",
		fmt.Sprintf("the client declares a post-repair datapath broken after %d consecutive op timeouts and re-arms it; re-arming is wireless control-path work, so the loop converges one cycle after heal", pfBrokenAfter))
	return nil
}
