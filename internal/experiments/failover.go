package experiments

import (
	"fmt"

	"hyperloop/internal/chain"
	"hyperloop/internal/metrics"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// Failover experiment constants. The crash lands mid-run, the monitor
// beats fast enough that suspicion (MissedThreshold consecutive missed
// beats) arrives ~1.5ms later, and the whole outage stays well inside the
// timeline window the report prints.
const (
	failoverMirror   = 256 << 10
	failoverCrashAt  = 2 * sim.Millisecond
	failoverBeat     = 500 * sim.Microsecond
	failoverMissed   = 3
	failoverBucket   = 500 * sim.Microsecond
	failoverBuckets  = 16 // timeline covers [0, 8ms)
	failoverMaxPause = 10 * sim.Millisecond
)

// failover kills the mid-chain replica of a 3-way HyperLoop group with a
// scheduled NIC crash and drives the §5 recovery protocol end to end:
// heartbeat suspicion → PauseWrites → catch-up onto a spare → Replace →
// fresh datapath → ResumeWrites. A closed-loop writer runs throughout and
// the report shows the recovery timeline, the write-latency cost of the
// outage, and the unavailability window (last good write before the crash
// to first good write after recovery).
func failover(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	ops := scale.pick(600, 6000)
	var rep *Report
	err := withArena(rc, func(ar *trialArena) error {
		r, err := failoverTrial(ar, seed, ops)
		rep = r
		return err
	})
	return rep, err
}

func failoverTrial(ar *trialArena, seed uint64, ops int) (*Report, error) {
	spec := testbed(ar, seed, 3, false)
	spec.Faults = &rdma.FaultPlan{
		NICs: []rdma.NICFault{{Host: "server-1", At: sim.Time(failoverCrashAt), Down: true}},
	}
	params := protocol.Params{
		MirrorSize: failoverMirror,
		OpTimeout:  200 * sim.Microsecond, MaxRetries: 1, RetryBackoff: 50 * sim.Microsecond,
	}
	c, err := newCluster(spec, "chain", params, nil)
	if err != nil {
		return nil, err
	}
	spare, err := c.Fabric.AddNIC("spare", c.Device("spare", failoverMirror))
	if err != nil {
		return nil, err
	}
	mon, err := chain.New(c.Kernel, c.nics(), chain.Config{
		HeartbeatEvery:  failoverBeat,
		MissedThreshold: failoverMissed,
	})
	if err != nil {
		return nil, err
	}

	// Recovery bookkeeping. Everything runs on one kernel, so plain
	// variables shared between the fibers are race-free.
	var (
		tSuspect, tCatchup, tResetup sim.Time
		lastOKBefore, firstOKAfter   sim.Time
		failedIdx                    = -1
		sawFailure                   bool
		timeouts                     int64
		repairErr                    error
	)
	suspected := sim.NewSignal()
	mon.OnSuspect(func(idx int) {
		failedIdx = idx
		tSuspect = c.Kernel.Now()
		mon.PauseWrites()
		suspected.Fire(nil)
	})
	mon.Start()

	group := c.group // swapped for the re-established datapath on recovery
	c.Kernel.Spawn("repair", func(f *sim.Fiber) {
		if err := f.Await(suspected); err != nil {
			return // kernel stopped before any failure
		}
		if _, err := mon.CatchUp(f, spare, failoverMirror); err != nil {
			repairErr = fmt.Errorf("catch-up: %w", err)
			return
		}
		tCatchup = f.Now()
		if err := mon.Replace(failedIdx, spare); err != nil {
			repairErr = fmt.Errorf("replace: %w", err)
			return
		}
		// Tear the old datapath down before re-Setup: both groups allocate
		// control rings at the same device offsets, so the abandoned QPs
		// must be destroyed or they race the new group for its completions.
		c.group.Close()
		env := c.Members("")
		env.Replicas = append([]*rdma.NIC(nil), env.Replicas...)
		env.Replicas[failedIdx] = spare
		g2, err := c.GroupOver(env, "chain", params)
		if err != nil {
			repairErr = fmt.Errorf("re-setup: %w", err)
			return
		}
		tResetup = f.Now()
		group = g2
		mon.ResumeWrites()
	})

	pre, post := metrics.NewHistogram(), metrics.NewHistogram()
	okBucket := make([]int64, failoverBuckets)
	toBucket := make([]int64, failoverBuckets)
	maxBucket := make([]sim.Duration, failoverBuckets)
	bucketOf := func(t sim.Time) int {
		b := int(t.Sub(sim.Time(0)) / failoverBucket)
		if b < 0 || b >= failoverBuckets {
			return -1
		}
		return b
	}
	err = c.Run(30*60*sim.Second, "failover-writer", func(f *sim.Fiber) error {
		defer mon.Stop()
		deadline := f.Now().Add(sim.Second)
		for i := 0; i < ops; i++ {
			off := (i % 128) * 2048
			for {
				if f.Now() > deadline {
					return fmt.Errorf("op %d: gave up at t=%v (%d timeouts, paused=%v)",
						i, f.Now(), timeouts, mon.Paused())
				}
				if mon.Paused() {
					f.Sleep(50 * sim.Microsecond)
					continue
				}
				start := f.Now()
				err := group.Write(f, off, 1024, true)
				now := f.Now()
				if err != nil {
					sawFailure = true
					timeouts++
					if b := bucketOf(now); b >= 0 {
						toBucket[b]++
					}
					f.Sleep(100 * sim.Microsecond)
					continue
				}
				lat := now.Sub(start)
				if b := bucketOf(now); b >= 0 {
					okBucket[b]++
					if lat > maxBucket[b] {
						maxBucket[b] = lat
					}
				}
				if !sawFailure {
					lastOKBefore = now
					pre.RecordDuration(lat)
				} else {
					if firstOKAfter == 0 {
						firstOKAfter = now
					}
					post.RecordDuration(lat)
				}
				break
			}
		}
		return nil
	})
	if repairErr != nil {
		return nil, repairErr
	}
	if err != nil {
		return nil, err
	}
	if !sawFailure || firstOKAfter == 0 {
		return nil, fmt.Errorf("failover: crash produced no observable outage (failures=%v firstOKAfter=%v)", sawFailure, firstOKAfter)
	}
	window := firstOKAfter.Sub(lastOKBefore)
	if window > failoverMaxPause {
		return nil, fmt.Errorf("failover: unavailability window %v exceeds the %v bound", window, failoverMaxPause)
	}

	timeline := metrics.NewTable("Recovery timeline (virtual time)", "event", "t")
	timeline.AddRow("NIC crash injected (server-1)", fd(failoverCrashAt))
	timeline.AddRow(fmt.Sprintf("failure suspected, writes paused (%d beats @ %s)", failoverMissed, fd(failoverBeat)), ft(tSuspect))
	timeline.AddRow("catch-up transfer complete (spare)", ft(tCatchup))
	timeline.AddRow("datapath re-established, writes resumed", ft(tResetup))
	timeline.AddRow("last good write before outage", ft(lastOKBefore))
	timeline.AddRow("first good write after recovery", ft(firstOKAfter))
	timeline.AddRow("unavailability window", fd(window))

	lat := metrics.NewTable("1KB durable gWRITE latency around the outage", "phase", "ops", "avg", "p99")
	lat.AddRow("pre-crash", pre.Count(), fd(pre.MeanDuration()), fd(pre.PercentileDuration(0.99)))
	lat.AddRow("post-recovery", post.Count(), fd(post.MeanDuration()), fd(post.PercentileDuration(0.99)))

	tl := metrics.NewTable(fmt.Sprintf("Write timeline (%s buckets)", fd(failoverBucket)),
		"t", "writes ok", "timeouts", "max latency")
	for b := 0; b < failoverBuckets; b++ {
		maxs := "-"
		if okBucket[b] > 0 {
			maxs = fd(maxBucket[b])
		}
		tl.AddRow(fd(sim.Duration(b)*failoverBucket), okBucket[b], toBucket[b], maxs)
	}

	retried := c.group.Retried()
	if group != c.group {
		retried += group.Retried()
	}
	fs := c.Fabric.FaultStats()
	return &Report{
		ID: "failover", Title: "Failover: mid-chain crash, suspicion, catch-up, resume (§5)",
		Tables: []*metrics.Table{timeline, lat, tl},
		Notes: []string{
			fmt.Sprintf("unavailability window %s = detection (%d×%s heartbeats) + catch-up + re-setup; bound %s",
				fd(window), failoverMissed, fd(failoverBeat), fd(failoverMaxPause)),
			fmt.Sprintf("%d write attempts timed out during the outage; %d client-level retries; %d packets dropped at the dead NIC",
				timeouts, retried, fs.Drops),
			"HyperLoop accelerates only the datapath: detection and membership are the application's recovery protocol (chain package)",
		},
	}, nil
}
