package experiments

import (
	"bytes"
	"errors"
	"fmt"

	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/report"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
	"hyperloop/internal/txn"
)

// Deployment shape: r2Shards 2-replica chain groups plus the router's
// 2-replica coordinator-log group, range-partitioned so key i lives on
// shard i (span-S transactions touch exactly shards 0..S-1, slot 0).
const (
	r2Shards   = 4
	r2SlotSize = 64
	r2Slots    = 8
	r2LogSize  = 1024
	r2Timeout  = 500 * sim.Microsecond
)

// recoveryRig is one sharded deployment. It runs chains only, so the rack
// has no schedulers (idle ones would fork the kernel RNG and move the
// dup+delay leg's draws).
type recoveryRig struct {
	*topo.Rack
	router *shard.Router
}

func newRecoveryRig(ar *trialArena, seed uint64, faults *rdma.FaultPlan) (*recoveryRig, error) {
	const replicas = 2
	r, err := topo.Build(topo.Spec{Seed: seed, Servers: replicas, Faults: faults, DevExtra: devExtra, Alloc: ar})
	if err != nil {
		return nil, err
	}
	cfg := shard.Config{
		Shards: r2Shards, Policy: shard.Range, Keys: r2Shards,
		SlotSize: r2SlotSize, SlotsPerShard: r2Slots, LogSize: r2LogSize,
	}
	place, err := shard.Place(shard.RoundRobin, r2Shards, replicas, replicas, nil)
	if err != nil {
		return nil, err
	}
	router, err := shard.New(cfg, shard.RackBackends(r, cfg, place, protocol.Named("chain"), protocol.Params{OpTimeout: r2Timeout}))
	if err != nil {
		return nil, err
	}
	return &recoveryRig{Rack: r, router: router}, nil
}

// r2Legs are the sweep's wire conditions.
var r2Legs = []struct {
	name   string
	faults func() *rdma.FaultPlan
}{
	{"clean", func() *rdma.FaultPlan { return nil }},
	{"dup+delay", func() *rdma.FaultPlan {
		return &rdma.FaultPlan{Links: []rdma.LinkFault{
			{DupProb: 0.05, ExtraDelay: 2 * sim.Microsecond},
		}}
	}},
	// The participants of a parallel phase run on chains of unequal
	// speed — shard 0 slowest — so they finish their steps at different
	// instants and in the reverse of participant order: the kill-th
	// firing catches the others mid-step, not at a common boundary.
	{"staggered", func() *rdma.FaultPlan {
		plan := &rdma.FaultPlan{}
		for i := 0; i < r2Shards-1; i++ {
			plan.Links = append(plan.Links, rdma.LinkFault{
				From:       fmt.Sprintf("cli/sh%d", i), // shard i's client NIC (shard.RackBackends)
				ExtraDelay: sim.Duration(r2Shards-1-i) * 1500 * sim.Nanosecond,
			})
		}
		return plan
	}},
}

// killOutcome is what recovery left behind after one coordinator crash.
type killOutcome struct {
	back, forward int
	mixed         bool // visibility not all-or-nothing, or on the wrong side of the commit point
	lockLeaks     int
	logResidue    bool // live commit records after recovery
	retryCommits  bool // the follow-up transactions committed cleanly
}

// killTrial builds a fresh rig, kills the coordinator at its kill-th 2PC
// step, recovers, audits visibility, locks and the log, then has the
// client retry afterTxns times.
func killTrial(ar *trialArena, seed uint64, faults *rdma.FaultPlan, span, kill, afterTxns int) (killOutcome, error) {
	var o killOutcome
	rig, err := newRecoveryRig(ar, seed+uint64(1000*span+kill), faults)
	if err != nil {
		return o, err
	}
	writes := make([]shard.Write, span)
	for i := range writes {
		writes[i] = shard.Write{Key: uint64(i), Data: []byte(fmt.Sprintf("p%d", i))}
	}
	err = rig.Run(60*sim.Second, "2pc-recovery-driver", func(f *sim.Fiber) error {
		step := 0
		rig.router.SetTxnStepHook(func(s txn.Step, participant int) error {
			step++
			if step == kill {
				return txn.ErrCoordinatorCrash
			}
			return nil
		})
		if err := rig.router.Txn(f, writes); !errors.Is(err, txn.ErrCoordinatorCrash) {
			return fmt.Errorf("txn survived the injected crash: %v", err)
		}
		rig.router.SetTxnStepHook(nil)

		rs, err := rig.router.Recover(f)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		o.back, o.forward = rs.Back, rs.Forward

		// Audit: all-or-nothing visibility on the client mirror and on
		// every replica's memory image.
		wantCommitted := kill >= 2*span+1 // the commit point
		visible := 0
		for i := 0; i < span; i++ {
			st := rig.router.Shard(i).Store
			want := []byte(fmt.Sprintf("p%d", i))
			got, err := st.ViewData(0, len(want))
			if err != nil {
				return fmt.Errorf("shard %d read: %w", i, err)
			}
			shardVisible := bytes.Equal(got, want)
			for _, nic := range rig.Members(fmt.Sprintf("sh%d", i)).Replicas {
				img := make([]byte, len(want))
				if err := nic.Memory().Read(st.DataOff(), img); err != nil {
					return fmt.Errorf("shard %d replica read: %w", i, err)
				}
				if bytes.Equal(img, want) != shardVisible {
					return fmt.Errorf("shard %d: replica image diverges from client mirror", i)
				}
			}
			if shardVisible {
				visible++
			}
		}
		committedAll := visible == span
		o.mixed = (visible != 0 && !committedAll) || committedAll != wantCommitted
		for i := 0; i < r2Shards; i++ {
			if locked, err := rig.router.Shard(i).Store.Locked(); err != nil {
				return err
			} else if locked {
				o.lockLeaks++
			}
		}
		recs, err := rig.router.CommitLog().Records()
		if err != nil {
			return err
		}
		o.logResidue = len(recs) != 0

		// The client retries, then keeps using the deployment.
		for n := 0; n < afterTxns; n++ {
			if err := rig.router.Txn(f, writes); err != nil {
				return fmt.Errorf("retry %d: %w", n, err)
			}
		}
		st := rig.router.Stats()
		o.retryCommits = st.Commits == uint64(afterTxns) && st.Aborts == 0 && st.InDoubt == 0
		return nil
	})
	return o, err
}

func recovery2PC(rc *runCtx, seed uint64, sc Scale) (*report.Report, error) {
	rep := &report.Report{ID: "2pc-recovery", Claim: "A durable coordinator commit record makes 2PC crash recovery unambiguous: " +
		"whatever protocol step the coordinator dies at, recovery rolls " +
		"record-bearing transactions forward and record-less ones back, so " +
		"post-recovery visibility is all-or-nothing on every shard and every " +
		"replica, no group lock leaks, the commit log drains, and the client's " +
		"retry commits exactly once — even under duplicated and delayed wire " +
		"traffic, and when the participants of a parallel phase finish " +
		"their steps at different instants."}
	// Full scale stresses each recovered deployment with extra
	// post-recovery transactions; quick proves the decision rule.
	afterTxns := sc.pick(1, 8)
	spans := []int{1, 2, 4}

	// Coordinator steps: a lock per shard, an append per shard,
	// log-commit, an execute (and unlock) per shard, log-truncate. Every
	// kill point of every (leg, span) is its own deployment, so one trial.
	type killPoint struct{ leg, span, kill int }
	var points []killPoint
	for l := range r2Legs {
		for _, span := range spans {
			for kill := 1; kill <= 3*span+2; kill++ {
				points = append(points, killPoint{l, span, kill})
			}
		}
	}
	outs, err := trials(rc, len(points), func(j int, ar *trialArena) (killOutcome, error) {
		p := points[j]
		o, err := killTrial(ar, seed, r2Legs[p.leg].faults(), p.span, p.kill, afterTxns)
		if err != nil {
			return o, fmt.Errorf("%s span %d kill %d: %w", r2Legs[p.leg].name, p.span, p.kill, err)
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}

	table := report.NewTable("coordinator crash-point sweep, recovery by the commit-record rule",
		report.Text("leg"), report.Count("span"), report.Count("kill points"), report.Count("rolled back"),
		report.Count("rolled forward"), report.Count("lock leaks"), report.Count("retry commits"))
	j := 0
	for _, leg := range r2Legs {
		for _, span := range spans {
			totalSteps := 3*span + 2
			commitPoint := 2*span + 1
			rolledBack, rolledForward, lockLeaks, retryCommits := 0, 0, 0, 0
			mixedVisibility := 0 // kill points whose outcome was not all-or-nothing
			logResidue := 0      // kill points leaving live commit records after recovery
			for _, o := range outs[j : j+totalSteps] {
				rolledBack += o.back
				rolledForward += o.forward
				lockLeaks += o.lockLeaks
				if o.mixed {
					mixedVisibility++
				}
				if o.logResidue {
					logResidue++
				}
				if o.retryCommits {
					retryCommits++
				}
			}
			j += totalSteps
			table.AddRow(leg.name, span, totalSteps, rolledBack, rolledForward, lockLeaks, retryCommits)

			// Every pre-commit-point kill must roll back, every later one
			// roll forward; both sides all-or-nothing.
			rep.Check(fmt.Sprintf("%s span %d: post-recovery visibility is all-or-nothing at every kill point", leg.name, span),
				mixedVisibility == 0,
				"%d of %d kill points violated all-or-nothing or landed on the wrong side of the commit point", mixedVisibility, totalSteps)
			rep.Check(fmt.Sprintf("%s span %d: no group lock leaks and the commit log drains", leg.name, span),
				lockLeaks == 0 && logResidue == 0,
				"%d leaked locks, %d kill points with live commit records after recovery", lockLeaks, logResidue)
			rep.Check(fmt.Sprintf("%s span %d: the retried transaction commits exactly once per attempt", leg.name, span),
				retryCommits == totalSteps,
				"%d of %d recovered deployments committed %d retried transaction(s) cleanly", retryCommits, totalSteps, afterTxns)
			wantFwd := (totalSteps - commitPoint + 1) * span
			rep.Check(fmt.Sprintf("%s span %d: recovery rolled forward exactly the record-bearing shards", leg.name, span),
				rolledForward <= wantFwd && rolledForward > 0,
				"%d shards rolled forward across %d post-commit-point kills (≤%d: shards already unlocked before the crash are skipped)",
				rolledForward, totalSteps-commitPoint+1, wantFwd)
		}
	}
	rep.Tables = append(rep.Tables, table)
	rep.Notes = append(rep.Notes,
		"the commit record (txnID, lock token, participant shards) is durably appended to the coordinator's own 2-replica group after every participant prepared and before any executes",
		"recovery decision rule: token-locked shard named by a record → roll forward (execute + unlock); token-locked shard with no record → roll back (presumed abort); never both for one transaction",
		"kill points 1..S are the locks, S+1..2S the appends, 2S+1 logs the record, 2S+2..3S+1 the executes (each releasing its shard's lock behind it), 3S+2 posts the truncate; every per-shard range runs on all shards at once, so within it the kill-th firing is the kill-th step to complete in virtual time and the other shards finish the step they have on the wire",
		"the staggered leg delays each shard's client link by a different amount (shard 0 by 4.5 µs, shard 3 not at all), so steps complete at different instants and in reverse shard order",
		"the dup+delay leg draws from the fault plan's forked RNG stream, so every leg is seed-deterministic and the clean leg's event stream matches a fault-free run byte for byte",
		fmt.Sprintf("each recovered deployment then serves %d follow-up transaction(s); commit/abort/in-doubt accounting must show exactly the commits", afterTxns))
	return rep, nil
}
