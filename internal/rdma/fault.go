package rdma

import (
	"errors"
	"fmt"
	"sort"

	"hyperloop/internal/sim"
)

// ErrBadFaultPlan is the base error for every FaultPlan validation
// failure; match with errors.Is.
var ErrBadFaultPlan = errors.New("rdma: bad fault plan")

// NICFault schedules a NIC availability change at a virtual instant:
// Down=true crashes the host's NIC (outgoing traffic is lost, inbound
// deliveries are dropped, the WQE engine stalls), Down=false restarts it
// (surviving send rings are re-kicked in QPN order so the restart is
// deterministic).
type NICFault struct {
	Host string
	At   sim.Time
	Down bool
}

// LinkFault degrades directed wire traffic from one host to another. An
// empty From or To matches any host, so a single rule can cut a node off
// from everyone. Probabilistic decisions (DropProb, DupProb) draw from the
// fault plan's own RNG stream — forked from the fabric RNG at install time
// — so a faulty run is seed-deterministic and byte-identical whether the
// experiment executes serially or overlapped, without perturbing the
// jitter stream that fault-free traffic consumes.
type LinkFault struct {
	From string // sending host ("" = any)
	To   string // receiving host ("" = any)

	// DropProb is the per-message probability the wire loses the message.
	// Transmit-side costs (serialization, message counters) are still paid.
	DropProb float64
	// DupProb is the per-delivered-message probability a second copy
	// arrives. The receiver's wire-sequence dedup discards the copy, as RC
	// transport would, so duplicates stress timing without double-applying.
	DupProb float64
	// ExtraDelay is added to every surviving message's latency before
	// jitter is applied.
	ExtraDelay sim.Duration
	// [PartitionFrom, PartitionUntil) is a window during which every
	// message on the link is lost. A zero window means no partition.
	PartitionFrom  sim.Time
	PartitionUntil sim.Time
}

// partitioned reports whether the link is inside its partition window.
func (lf *LinkFault) partitioned(now sim.Time) bool {
	return lf.PartitionUntil > lf.PartitionFrom &&
		now >= lf.PartitionFrom && now < lf.PartitionUntil
}

// FaultPlan is a deterministic fault-injection schedule for one fabric.
// Install it once, before traffic flows, with Fabric.InstallFaultPlan.
// The first Links rule matching a (from, to) pair wins, so
// order specific rules before wildcards.
type FaultPlan struct {
	NICs  []NICFault
	Links []LinkFault
}

// FaultStats counts a fabric's fault-plan effects. All three are
// virtual-time deterministic and usable as strict regression counters.
type FaultStats struct {
	// Drops counts messages lost for any reason: wire drop, partition
	// window, a sender that was down, or a receiver that died in flight.
	Drops int64
	// Dups counts extra copies injected by DupProb.
	Dups int64
	// DupsSuppressed counts duplicate deliveries discarded by the
	// receiver's wire-sequence dedup.
	DupsSuppressed int64
}

// Validate checks the plan against the contract InstallFaultPlan assumes.
// It rejects, with an error wrapping ErrBadFaultPlan:
//
//   - link probabilities outside [0, 1], negative extra delay, and
//     malformed partition windows (negative bounds, or an inverted window
//     with PartitionUntil < PartitionFrom; an empty window — equal bounds
//     or both zero — means "no partition" and is fine);
//   - NIC faults with an empty host or a negative instant;
//   - overlapping crash/restart schedules for one host: two events at the
//     same instant (their order would be ambiguous), a schedule that does
//     not begin with a crash, or consecutive events that do not alternate
//     crash → restart → crash (a crash of an already-down NIC, or a
//     restart of one never crashed, is a plan-authoring bug, not a fault).
//
// Validate never mutates the plan. A nil plan is valid (it installs
// nothing).
func (p *FaultPlan) Validate() error {
	if p == nil {
		return nil
	}
	for i, lf := range p.Links {
		bad := func(format string, a ...any) error {
			return fmt.Errorf("%w: link %d (%q->%q): %s", ErrBadFaultPlan, i, lf.From, lf.To, fmt.Sprintf(format, a...))
		}
		if lf.DropProb < 0 || lf.DropProb > 1 {
			return bad("drop probability %v outside [0,1]", lf.DropProb)
		}
		if lf.DupProb < 0 || lf.DupProb > 1 {
			return bad("dup probability %v outside [0,1]", lf.DupProb)
		}
		if lf.ExtraDelay < 0 {
			return bad("negative extra delay %v", lf.ExtraDelay)
		}
		if lf.PartitionFrom < 0 || lf.PartitionUntil < 0 {
			return bad("negative partition bound [%v, %v)", lf.PartitionFrom, lf.PartitionUntil)
		}
		if lf.PartitionUntil < lf.PartitionFrom {
			return bad("inverted partition window [%v, %v)", lf.PartitionFrom, lf.PartitionUntil)
		}
	}
	byHost := make(map[string][]NICFault)
	for i, nf := range p.NICs {
		if nf.Host == "" {
			return fmt.Errorf("%w: NIC fault %d: empty host", ErrBadFaultPlan, i)
		}
		if nf.At < 0 {
			return fmt.Errorf("%w: NIC fault %d (%s): negative instant %v", ErrBadFaultPlan, i, nf.Host, nf.At)
		}
		byHost[nf.Host] = append(byHost[nf.Host], nf)
	}
	hosts := make([]string, 0, len(byHost))
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		evs := byHost[h]
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].At < evs[b].At })
		for i, nf := range evs {
			if i > 0 && evs[i-1].At == nf.At {
				return fmt.Errorf("%w: NIC %s: two events at the same instant %v", ErrBadFaultPlan, h, nf.At)
			}
			wantDown := i%2 == 0 // crash, restart, crash, …
			if nf.Down != wantDown {
				if wantDown {
					return fmt.Errorf("%w: NIC %s: restart at %v without a preceding crash", ErrBadFaultPlan, h, nf.At)
				}
				return fmt.Errorf("%w: NIC %s: crash at %v while already down", ErrBadFaultPlan, h, nf.At)
			}
		}
	}
	return nil
}

// InstallFaultPlan validates the plan and arms it on the fabric: NIC
// crash/restart events are scheduled on the kernel at their virtual
// instants and link rules are consulted on every subsequent wire message.
// The plan's RNG is forked from the fabric RNG here, so two runs with the
// same seed and the same plan replay the same faults; a run with no plan
// installed draws exactly the RNG sequence it always did.
func (f *Fabric) InstallFaultPlan(p *FaultPlan) error {
	if p == nil {
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	f.faultLinks = append(f.faultLinks[:0], p.Links...)
	f.faultRNG = f.rng.Fork()
	for _, nf := range p.NICs {
		nf := nf
		f.k.At(nf.At, func() {
			if n := f.nics[nf.Host]; n != nil {
				n.SetDown(nf.Down)
			}
		})
	}
	return nil
}

// linkFault returns the first installed link rule matching the directed
// (from, to) pair, or nil.
func (f *Fabric) linkFault(from, to string) *LinkFault {
	for i := range f.faultLinks {
		lf := &f.faultLinks[i]
		if (lf.From == "" || lf.From == from) && (lf.To == "" || lf.To == to) {
			return lf
		}
	}
	return nil
}

// FaultStats reports the fabric's fault-plan effect counts.
func (f *Fabric) FaultStats() FaultStats { return f.faultStats }
