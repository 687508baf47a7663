package hypotheses

import (
	"bytes"
	"fmt"

	"hyperloop/internal/metrics"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
)

func init() {
	register("flush-storm",
		"An acknowledged gFLUSH is a durability contract that crash storms cannot "+
			"break: after a rolling storm of single-member NIC failures, every "+
			"acked flush's bytes survive a power-loss crash of all member devices "+
			"on at least AcksNeeded members; the majority-quorum broadcast "+
			"additionally fails strictly fewer ops through the storm than its "+
			"all-ack twin, while all-ack protocols must fail ops whenever any "+
			"member is down.",
		"crash/restart storm across members, then power-fail every device and audit durable images",
		runFlushStorm)
}

// Storm schedule: rolling single-member outages, one member at a time, so
// a majority is always up.
const (
	fsOpSize    = 64
	fsDownFor   = 350 * sim.Microsecond
	fsCycleGap  = 700 * sim.Microsecond
	fsFirstDown = 500 * sim.Microsecond
	fsCycles    = 4
	fsTimeout   = 100 * sim.Microsecond
)

// stormPlan builds the rolling outage schedule over nReplicas members.
func stormPlan(nReplicas int) *rdma.FaultPlan {
	p := &rdma.FaultPlan{}
	for c := 0; c < fsCycles; c++ {
		host := fmt.Sprintf("server-%d", c%nReplicas)
		at := sim.Time(fsFirstDown + sim.Duration(c)*fsCycleGap)
		p.NICs = append(p.NICs,
			rdma.NICFault{Host: host, At: at, Down: true},
			rdma.NICFault{Host: host, At: at.Add(fsDownFor), Down: false})
	}
	return p
}

func runFlushStorm(seed uint64, sc Scale) (*Result, error) {
	ops := sc.pick(240, 1600)
	res := &Result{}
	// bcast sorts before bcast-maj in protocol.Names(), so its failure
	// count is available when the quorum variant's checks run.
	allAckFailed := int64(-1)
	table := metrics.NewTable("gFLUSH durability through a rolling NIC crash storm",
		"protocol", "acked flushes", "failed ops", "min durable copies", "quorum needed", "drops")
	for _, name := range protocol.Names() {
		d, err := deploy(topo.Spec{Seed: seed, Faults: stormPlan(3)}, name, protocol.Params{
			OpTimeout:    fsTimeout,
			MaxRetries:   1,
			RetryBackoff: 25 * sim.Microsecond,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		// Each op writes a unique payload at a unique offset, so a failed
		// (possibly partially applied) op can never corrupt an acked one.
		acked := make([]bool, ops)
		payload := func(i int) []byte {
			b := make([]byte, fsOpSize)
			for j := range b {
				b[j] = byte(seed) ^ byte(i>>8) ^ byte(i+j)
			}
			return b
		}
		var failed int64
		err = d.Run(60*sim.Second, driver, func(f *sim.Fiber) error {
			for i := 0; i < ops; i++ {
				off := i * fsOpSize
				if err := d.group.WriteLocal(off, payload(i)); err != nil {
					return fmt.Errorf("op %d: write local: %w", i, err)
				}
				err := d.group.Write(f, off, fsOpSize, false)
				if err == nil {
					err = d.group.Flush(f, off, fsOpSize)
				}
				switch {
				case err == nil:
					acked[i] = true
				case protocol.IsOpError(err):
					failed++
					f.Sleep(20 * sim.Microsecond)
				default:
					return fmt.Errorf("op %d: %w", i, err)
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		inflight := d.group.InFlight()
		d.group.Close()

		// Power-fail every member device: unflushed writes vanish and the
		// current image reverts to the durable one. Whatever survives is
		// exactly what a post-crash recovery would find.
		for _, m := range d.members() {
			m.Memory().Crash()
		}
		need := protocol.AcksNeeded(name, len(d.members()))
		minCopies, ackedN := len(d.members())+1, 0
		underQuorum := 0
		buf := make([]byte, fsOpSize)
		for i := 0; i < ops; i++ {
			if !acked[i] {
				continue
			}
			ackedN++
			copies := 0
			for _, m := range d.members() {
				if err := m.Memory().ReadDurable(i*fsOpSize, buf); err != nil {
					return nil, fmt.Errorf("%s: member read: %w", name, err)
				}
				if bytes.Equal(buf, payload(i)) {
					copies++
				}
			}
			if copies < minCopies {
				minCopies = copies
			}
			if copies < need {
				underQuorum++
			}
		}
		if ackedN == 0 {
			minCopies = 0
		}
		fs := d.Fabric.FaultStats()
		table.AddRow(name, ackedN, failed, minCopies, need, fs.Drops)
		res.Counters = res.Counters.add(d.counters())

		res.check(fmt.Sprintf("%s: acked flushes survive power loss on ≥%d members", name, need),
			ackedN > 0 && underQuorum == 0,
			"%d acked flushes, %d below the %d-copy quorum, weakest op durable on %d", ackedN, underQuorum, need, minCopies)
		if name == "bcast" {
			allAckFailed = failed
		}
		if need < len(d.members()) {
			// Not zero failures: a member that crashed mid-chain keeps its
			// loop QP one op behind (errored WQEs no longer satisfy WAITs),
			// so an op can still time out when the storm shrinks the live
			// quorum to exactly the needed size and the laggard is in it.
			// The quorum's guarantee is masking, not immunity.
			res.check(fmt.Sprintf("%s: majority quorum masks outage failures the all-ack twin takes", name),
				allAckFailed >= 0 && failed < allAckFailed,
				"%d failed ops vs %d for all-ack bcast through %d outage windows", failed, allAckFailed, fsCycles)
		} else {
			res.check(fmt.Sprintf("%s: all-ack completion must fail while a member is down", name),
				failed > 0, "%d failed ops across %d outage windows", failed, fsCycles)
		}
		res.check(fmt.Sprintf("%s: nothing left in flight", name),
			inflight == 0, "InFlight() = %d after the driver finished", inflight)
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		fmt.Sprintf("storm: %d rolling outages, one member down %s every %s starting at %s; op timeout %s, ≤1 retry",
			fsCycles, fd(fsDownFor), fd(fsCycleGap), fd(fsFirstDown), fd(fsTimeout)),
		"unique per-op offsets mean a timed-out op's partial application can never be mistaken for an acked op's bytes",
		"AcksNeeded comes from the protocol traits registry: bcast-maj guarantees ⌊G/2⌋+1 copies, everything else all G",
		"a member that crashes mid-chain limps one op behind afterwards (its flushed loop WQEs produce error CQEs, which never satisfy WAITs), so even the majority quorum sees residual timeouts when the storm leaves it needing every live member")
	return res, nil
}
