package experiments

import (
	"fmt"

	"hyperloop/internal/chain"
	"hyperloop/internal/metrics"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/report"
	"hyperloop/internal/sim"
)

// Failover experiment constants, the crash and monitor partition-failover
// shares. The crash lands mid-run, the monitor beats fast enough that
// suspicion (MissedThreshold consecutive missed beats) arrives ~1.5ms
// later, and the whole outage stays well inside the timeline window the
// report prints.
const (
	failoverMirror   = 256 << 10
	failoverCrashAt  = 2 * sim.Millisecond
	failoverBeat     = 500 * sim.Microsecond
	failoverMissed   = 3
	failoverBucket   = 500 * sim.Microsecond
	failoverBuckets  = 16 // timeline covers [0, 8ms)
	failoverMaxPause = 10 * sim.Millisecond
)

// failoverParams is the datapath both failover scenarios crash: one quick
// retry, so a dead member surfaces as op timeouts within ~0.5ms.
var failoverParams = protocol.Params{
	MirrorSize: failoverMirror,
	OpTimeout:  200 * sim.Microsecond, MaxRetries: 1, RetryBackoff: 50 * sim.Microsecond,
}

// failover kills the mid-chain replica of a 3-way HyperLoop group with a
// scheduled NIC crash and drives the §5 recovery protocol end to end:
// chain.Manager.Repair pauses writes on suspicion, catches a spare up,
// swaps it in and resumes once rearm has built a fresh datapath over the
// repaired chain. A closed-loop writer (outage) runs throughout and
// the report shows the recovery timeline, the write-latency cost of the
// outage, and the unavailability window (last good write before the crash
// to first good write after recovery).
func failover(rc *runCtx, seed uint64, scale Scale) (*report.Report, error) {
	reps, err := trials(rc, 1, func(_ int, ar *trialArena) (*report.Report, error) {
		return failoverTrial(ar, seed, scale.pick(600, 6000))
	})
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

func failoverTrial(ar *trialArena, seed uint64, ops int) (*report.Report, error) {
	spec := testbed(ar, seed, 3, false)
	spec.Faults = &rdma.FaultPlan{
		NICs: []rdma.NICFault{{Host: "server-1", At: sim.Time(failoverCrashAt), Down: true}},
	}
	c, err := newCluster(spec, protocol.Named("chain"), failoverParams)
	if err != nil {
		return nil, err
	}
	w, err := newOutage(c)
	if err != nil {
		return nil, err
	}

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
	w.attempt = func(start, now sim.Time, err error) error {
		b := bucketOf(now)
		if err != nil {
			if b >= 0 {
				toBucket[b]++
			}
			return nil
		}
		lat := now.Sub(start)
		if b >= 0 {
			okBucket[b]++
			maxBucket[b] = max(maxBucket[b], lat)
		}
		if w.sawFailure {
			post.RecordDuration(lat)
		} else {
			pre.RecordDuration(lat)
		}
		return nil
	}
	if err := w.run(ops); err != nil {
		return nil, err
	}
	window := w.firstOKAfter.Sub(w.lastOKBefore)
	if window > failoverMaxPause {
		return nil, fmt.Errorf("failover: unavailability window %v exceeds the %v bound", window, failoverMaxPause)
	}

	timeline := report.NewTable("Recovery timeline (virtual time)", report.Text("event"), report.Dur("t"))
	timeline.AddRow("NIC crash injected (server-1)", failoverCrashAt)
	timeline.AddRow(fmt.Sprintf("failure suspected, writes paused (%d beats @ %s)", failoverMissed, fd(failoverBeat)), at(w.repair.Suspected))
	timeline.AddRow("catch-up transfer complete (spare)", at(w.repair.CaughtUp))
	timeline.AddRow("datapath re-established, writes resumed", at(w.repair.Resumed))
	timeline.AddRow("last good write before outage", at(w.lastOKBefore))
	timeline.AddRow("first good write after recovery", at(w.firstOKAfter))
	timeline.AddRow("unavailability window", window)

	lat := report.NewTable("1KB durable gWRITE latency around the outage",
		report.Text("phase"), report.Count("ops"), report.Dur("avg"), report.Dur("p99"))
	lat.AddRow("pre-crash", pre.Count(), pre.MeanDuration(), pre.PercentileDuration(99))
	lat.AddRow("post-recovery", post.Count(), post.MeanDuration(), post.PercentileDuration(99))

	tl := report.NewTable(fmt.Sprintf("Write timeline (%s buckets)", fd(failoverBucket)),
		report.Dur("t"), report.Count("writes ok"), report.Count("timeouts"), report.Dur("max latency"))
	for b := 0; b < failoverBuckets; b++ {
		var maxLat any // missing in a bucket without a good write
		if okBucket[b] > 0 {
			maxLat = maxBucket[b]
		}
		tl.AddRow(sim.Duration(b)*failoverBucket, okBucket[b], toBucket[b], maxLat)
	}

	retried := c.group.Retried()
	if w.group != c.group {
		retried += w.group.Retried()
	}
	fs := c.Fabric.FaultStats()
	return &report.Report{
		ID: "failover", Title: "Failover: mid-chain crash, suspicion, catch-up, resume (§5)",
		Tables: []*report.Table{timeline, lat, tl},
		Notes: []string{
			fmt.Sprintf("unavailability window %s = detection (%d×%s heartbeats) + catch-up + re-setup; bound %s",
				fd(window), failoverMissed, fd(failoverBeat), fd(failoverMaxPause)),
			fmt.Sprintf("%d write attempts timed out during the outage; %d client-level retries; %d packets dropped at the dead NIC",
				w.timeouts, retried, fs.Drops),
			"HyperLoop accelerates only the datapath: detection and membership are the application's recovery protocol (chain package)",
		},
	}, nil
}

// outage is the closed-loop client both failover scenarios keep writing
// through a repair of their cluster's group, and what it saw.
type outage struct {
	c      *cluster
	mon    *chain.Manager
	repair *chain.Repair
	group  protocol.Protocol // the live datapath; rearm swaps it
	// attempt, if set, sees every write attempt: its start, its end and
	// its op error (nil on success). An error it returns aborts the run.
	attempt func(start, now sim.Time, err error) error

	members   []*rdma.NIC // the repaired chain, once the repair rebuilt
	rearms    int         // datapaths armed over it
	lastRearm sim.Time

	sawFailure   bool     // some attempt failed
	lastOKBefore sim.Time // last good write before the first failure
	firstOKAfter sim.Time // first good write after it
	timeouts     int64    // failed attempts
}

// newOutage adds a spare machine to c and arms the repair of c's group
// onto it: a monitor beating every failoverBeat suspects a member after
// failoverMissed misses, and the repair's rebuild is rearm.
func newOutage(c *cluster) (*outage, error) {
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
	o := &outage{c: c, mon: mon, group: c.group}
	o.repair = mon.Repair(spare, failoverMirror, func(_ *sim.Fiber, members []*rdma.NIC) error {
		o.members = members
		return o.rearm()
	})
	return o, nil
}

// run drives ops 1 KiB durable writes at (i%128)*2048, waiting 50µs while
// writes are paused and 100µs after a failed attempt, and gives up after
// 1s. A non-op error aborts the run. It stops the monitor when done and
// returns the repair's error ahead of its own, so a failed repair is
// reported as itself and not as a writer that gave up on the paused chain.
// A run that saw no failure, or no good write after one, is an error too.
func (o *outage) run(ops int) error {
	err := o.c.Run(60*sim.Second, "outage-writer", func(f *sim.Fiber) error {
		defer o.mon.Stop()
		deadline := f.Now().Add(sim.Second)
		for i := 0; i < ops; i++ {
			off := (i % 128) * 2048
			for {
				if f.Now() > deadline {
					return fmt.Errorf("op %d: gave up at t=%v (%d timeouts, paused=%v)",
						i, f.Now(), o.timeouts, o.mon.Paused())
				}
				if o.mon.Paused() {
					f.Sleep(50 * sim.Microsecond)
					continue
				}
				start := f.Now()
				err := o.group.Write(f, off, 1024, true)
				now := f.Now()
				switch {
				case err != nil && !protocol.IsOpError(err):
					return fmt.Errorf("op %d: %w", i, err)
				case err != nil:
					o.sawFailure = true
					o.timeouts++
				case !o.sawFailure:
					o.lastOKBefore = now
				case o.firstOKAfter == 0:
					o.firstOKAfter = now
				}
				if o.attempt != nil {
					if aerr := o.attempt(start, now, err); aerr != nil {
						return fmt.Errorf("op %d: %w", i, aerr)
					}
				}
				if err == nil {
					break
				}
				f.Sleep(100 * sim.Microsecond)
			}
		}
		return nil
	})
	switch {
	case o.repair.Err != nil:
		return o.repair.Err
	case err != nil:
		return err
	case !o.sawFailure || o.firstOKAfter == 0:
		return fmt.Errorf("crash produced no observable outage (failures=%v firstOKAfter=%v)", o.sawFailure, o.firstOKAfter)
	}
	return nil
}

// rearm tears the live datapath down and arms a fresh one over the
// repaired chain. The old group goes first: both allocate control rings
// at the same device offsets, so its abandoned QPs must be destroyed or
// they race the new group for its completions.
func (o *outage) rearm() error {
	o.group.Close()
	env := o.c.Members("")
	env.Replicas = o.members
	g, err := o.c.GroupOver(env, protocol.Named("chain"), failoverParams)
	if err != nil {
		return err
	}
	o.group = g
	o.rearms++
	o.lastRearm = o.c.Kernel.Now()
	return nil
}
