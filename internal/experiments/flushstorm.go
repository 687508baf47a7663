package experiments

import (
	"bytes"
	"fmt"

	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/report"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
)

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

// stormAudit is one protocol's storm trial: the ops it acked and failed,
// and how many members' durable images hold each acked flush after
// power loss.
type stormAudit struct {
	acked, failed, drops   int64
	members, need          int
	minCopies, underQuorum int
	inflight               int
}

// stormTrial drives one protocol through the storm, power-fails every
// member device and audits the durable images.
func stormTrial(ar *trialArena, seed uint64, name string, ops int) (stormAudit, error) {
	var a stormAudit
	d, err := deploy(ar, topo.Spec{Seed: seed, Faults: stormPlan(3)}, name, protocol.Params{
		OpTimeout:    fsTimeout,
		MaxRetries:   1,
		RetryBackoff: 25 * sim.Microsecond,
	})
	if err != nil {
		return a, err
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
				a.failed++
				f.Sleep(20 * sim.Microsecond)
			default:
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return a, err
	}
	a.inflight = d.group.InFlight()
	d.group.Close()

	// Power-fail every member device: unflushed writes vanish and the
	// current image reverts to the durable one. Whatever survives is
	// exactly what a post-crash recovery would find.
	members := d.nics()
	for _, m := range members {
		m.Memory().Crash()
	}
	a.members = len(members)
	a.need = protocol.AcksNeeded(name, len(members))
	a.minCopies = len(members) + 1
	buf := make([]byte, fsOpSize)
	for i := 0; i < ops; i++ {
		if !acked[i] {
			continue
		}
		a.acked++
		copies := 0
		for _, m := range members {
			if err := m.Memory().ReadDurable(i*fsOpSize, buf); err != nil {
				return a, fmt.Errorf("member read: %w", err)
			}
			if bytes.Equal(buf, payload(i)) {
				copies++
			}
		}
		a.minCopies = min(a.minCopies, copies)
		if copies < a.need {
			a.underQuorum++
		}
	}
	if a.acked == 0 {
		a.minCopies = 0
	}
	a.drops = d.Fabric.FaultStats().Drops
	return a, nil
}

func flushStorm(rc *runCtx, seed uint64, sc Scale) (*report.Report, error) {
	ops := sc.pick(240, 1600)
	rep := &report.Report{ID: "flush-storm", Claim: "An acknowledged gFLUSH is a durability contract that crash storms cannot " +
		"break: after a rolling storm of single-member NIC failures, every " +
		"acked flush's bytes survive a power-loss crash of all member devices " +
		"on at least AcksNeeded members; the majority-quorum broadcast " +
		"additionally fails strictly fewer ops through the storm than its " +
		"all-ack twin, while all-ack protocols must fail ops whenever any " +
		"member is down."}
	names := protocol.Names()
	audits, err := trials(rc, len(names), func(j int, ar *trialArena) (stormAudit, error) {
		a, err := stormTrial(ar, seed, names[j], ops)
		if err != nil {
			return a, fmt.Errorf("%s: %w", names[j], err)
		}
		return a, nil
	})
	if err != nil {
		return nil, err
	}

	// bcast sorts before bcast-maj in protocol.Names(), so its failure
	// count is available when the quorum variant's checks run.
	allAckFailed := int64(-1)
	table := report.NewTable("gFLUSH durability through a rolling NIC crash storm",
		report.Text("protocol"), report.Count("acked flushes"), report.Count("failed ops"),
		report.Count("min durable copies"), report.Count("quorum needed"), report.Count("drops"))
	for j, name := range names {
		a := audits[j]
		table.AddRow(name, a.acked, a.failed, a.minCopies, a.need, a.drops)
		rep.Check(fmt.Sprintf("%s: acked flushes survive power loss on ≥%d members", name, a.need),
			a.acked > 0 && a.underQuorum == 0,
			"%d acked flushes, %d below the %d-copy quorum, weakest op durable on %d", a.acked, a.underQuorum, a.need, a.minCopies)
		if name == "bcast" {
			allAckFailed = a.failed
		}
		if a.need < a.members {
			// Not zero failures: a member that crashed mid-chain keeps its
			// loop QP one op behind (errored WQEs no longer satisfy WAITs),
			// so an op can still time out when the storm shrinks the live
			// quorum to exactly the needed size and the laggard is in it.
			// The quorum's guarantee is masking, not immunity.
			rep.Check(fmt.Sprintf("%s: majority quorum masks outage failures the all-ack twin takes", name),
				allAckFailed >= 0 && a.failed < allAckFailed,
				"%d failed ops vs %d for all-ack bcast through %d outage windows", a.failed, allAckFailed, fsCycles)
		} else {
			rep.Check(fmt.Sprintf("%s: all-ack completion must fail while a member is down", name),
				a.failed > 0, "%d failed ops across %d outage windows", a.failed, fsCycles)
		}
		rep.Check(fmt.Sprintf("%s: nothing left in flight", name),
			a.inflight == 0, "InFlight() = %d after the driver finished", a.inflight)
	}
	rep.Tables = append(rep.Tables, table)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("storm: %d rolling outages, one member down %s every %s starting at %s; op timeout %s, ≤1 retry",
			fsCycles, fd(fsDownFor), fd(fsCycleGap), fd(fsFirstDown), fd(fsTimeout)),
		"unique per-op offsets mean a timed-out op's partial application can never be mistaken for an acked op's bytes",
		"AcksNeeded comes from the protocol traits registry: bcast-maj guarantees ⌊G/2⌋+1 copies, everything else all G",
		"a member that crashes mid-chain limps one op behind afterwards (its flushed loop WQEs produce error CQEs, which never satisfy WAITs), so even the majority quorum sees residual timeouts when the storm leaves it needing every live member")
	return rep, nil
}
