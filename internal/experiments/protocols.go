package experiments

import (
	"fmt"

	"hyperloop/internal/metrics"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// Protocols-comparison constants. The availability leg reuses the
// failover experiment's crash schedule and timeout policy so its window
// numbers are comparable, but runs without a recovery protocol: it
// measures what each datapath does on its own when server-1 dies.
const (
	protoMirror    = 256 << 10
	protoWriteSize = 1024
	protoCrashAt   = 2 * sim.Millisecond
	protoHorizon   = 8 * sim.Millisecond
	protoTimeout   = 200 * sim.Microsecond
	protoBackoff   = 50 * sim.Microsecond
)

// protocolsExp compares every registered replication protocol on the
// same 3-replica deployment, twice:
//
//  1. Fault-free cost: closed-loop 1KB durable gWRITE latency plus the
//     fabric's deterministic message and wire-byte counters per op — the
//     fan-out cost each dataflow pays for its completion path.
//  2. Availability under a replica crash: server-1's NIC dies mid-run
//     with client-side timeouts armed and no recovery protocol running.
//     Quorum completion ("bcast-maj") keeps completing writes; every
//     all-member datapath stalls until the horizon.
func protocolsExp(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	names := protocol.Names()
	ops := scale.pick(200, 2000)

	type costRes struct {
		h       *metrics.Histogram
		msgsOp  float64
		bytesOp float64
	}

	// Leg 1: fault-free latency and message cost.
	costs, err := trials(rc, len(names), func(j int, ar *trialArena) (costRes, error) {
		c, err := newCluster(testbed(ar, seed, 3, false), protocol.Named(names[j]), protocol.Params{MirrorSize: protoMirror})
		if err != nil {
			return costRes{}, fmt.Errorf("%s: %w", names[j], err)
		}
		msgs0, bytes0 := c.Fabric.Stats()
		h, err := c.runLatency(ops, func(f *sim.Fiber, i int) error {
			return c.group.Write(f, (i%16)*8192, protoWriteSize, true)
		})
		if err != nil {
			return costRes{}, fmt.Errorf("%s: %w", names[j], err)
		}
		msgs1, bytes1 := c.Fabric.Stats()
		return costRes{
			h:       h,
			msgsOp:  float64(msgs1-msgs0) / float64(ops),
			bytesOp: float64(bytes1-bytes0) / float64(ops),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	// Leg 2: availability across a replica crash.
	avails, err := trials(rc, len(names), func(j int, ar *trialArena) (protoAvail, error) {
		r, err := protocolAvailTrial(ar, seed, names[j])
		if err != nil {
			return r, fmt.Errorf("%s: %w", names[j], err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	cost := metrics.NewTable(
		fmt.Sprintf("Fault-free cost: %dB durable gWRITE, G=3 (client counters exclude the local copy)", protoWriteSize),
		"protocol", "avg", "p99", "msgs/op", "wire KB/op")
	for j, n := range names {
		cost.AddRow(n, costs[j].h.MeanDuration(), costs[j].h.PercentileDuration(99),
			fmt.Sprintf("%.1f", costs[j].msgsOp),
			fmt.Sprintf("%.1f", costs[j].bytesOp/1024))
	}

	avail := metrics.NewTable(
		fmt.Sprintf("Availability: server-1 NIC crash at %s, no recovery protocol (%s horizon)", fd(protoCrashAt), fd(protoHorizon)),
		"protocol", "ok before", "failed", "ok after", "unavailability")
	for j, n := range names {
		w := "permanent (needs failover)"
		if avails[j].window > 0 {
			w = fd(avails[j].window)
		}
		avail.AddRow(n, avails[j].okBefore, avails[j].failed, avails[j].okAfter, w)
	}

	return &Report{
		ID: "protocols", Title: "Replication protocol comparison: latency, message cost, availability",
		Tables: []*metrics.Table{cost, avail},
		Notes: []string{
			"chain forwards hop-by-hop (write+meta per hop, one ACK back); bcast pays ~2G client-side messages but the shortest completion path",
			"bcast-maj completes on a majority of member acks, so one dead replica costs only the in-flight timeouts; every all-member protocol blocks until failover replaces the member (see the failover experiment)",
			"naive runs the same chain with replica CPUs on the critical path (idle machines here; see fig11/fig12 for the loaded case)",
		},
	}, nil
}

// protoAvail is one protocol's availability-leg outcome.
type protoAvail struct {
	okBefore, okAfter int64
	failed            int64
	window            sim.Duration // 0 = never recovered
}

// protocolAvailTrial drives closed-loop writes through one protocol
// while server-1 crashes, continuing through op errors until the
// horizon. Successes are classified by virtual time against the crash
// instant, and the unavailability window is the gap from the crash to
// the first completed write after it (0 if writes never succeed again —
// the protocol needs failover to make progress).
func protocolAvailTrial(ar *trialArena, seed uint64, name string) (protoAvail, error) {
	spec := testbed(ar, seed, 3, false)
	spec.Faults = &rdma.FaultPlan{
		NICs: []rdma.NICFault{{Host: "server-1", At: sim.Time(protoCrashAt), Down: true}},
	}
	c, err := newCluster(spec, protocol.Named(name), protocol.Params{
		MirrorSize: protoMirror, OpTimeout: protoTimeout, MaxRetries: 1, RetryBackoff: protoBackoff,
	})
	if err != nil {
		return protoAvail{}, err
	}
	var (
		res          protoAvail
		firstOKAfter sim.Time
		crashAt      = sim.Time(0).Add(protoCrashAt)
		horizon      = sim.Time(0).Add(protoHorizon)
	)
	err = c.Run(30*60*sim.Second, "proto-avail-writer", func(f *sim.Fiber) error {
		for i := 0; f.Now() < horizon; i++ {
			off := (i % 128) * 2048
			err := c.group.Write(f, off, protoWriteSize, true)
			now := f.Now()
			switch {
			case err == nil && now <= crashAt:
				res.okBefore++
			case err == nil:
				res.okAfter++
				if firstOKAfter == 0 {
					firstOKAfter = now
				}
			default:
				if !protocol.IsOpError(err) {
					return fmt.Errorf("op %d: %w", i, err)
				}
				res.failed++
				f.Sleep(100 * sim.Microsecond)
			}
		}
		return nil
	})
	if err != nil {
		return protoAvail{}, err
	}
	if res.failed == 0 && res.okAfter == 0 {
		return protoAvail{}, fmt.Errorf("crash left no observable trace (okBefore=%d)", res.okBefore)
	}
	if firstOKAfter > 0 {
		res.window = firstOKAfter.Sub(crashAt)
	}
	return res, nil
}
