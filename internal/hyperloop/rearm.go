package hyperloop

import (
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// reArmDelay is how long after an operation has passed through a member
// its control path re-arms that slot. It is off the critical path by
// construction.
const reArmDelay = 5 * sim.Microsecond

// reArm is one slot's pending re-arm: arm seq once its delay is up.
type reArm struct {
	seq    uint64
	queued bool
	fn     func()
}

// reArmOn wires a member's lazy control-path re-arm: the n-th completion
// on cq means operation n has fully passed through the member, so arm
// posts the chains for operation n+depth, reArmDelay later. A down NIC
// defers the re-arm instead of dropping it: a NIC outage doesn't kill the
// member host, whose control path keeps retrying its replenishment until
// the link returns. Dropping the re-arm would permanently shrink the
// pre-posted window — enough crash/restart cycles and the group wedges
// with every receive slot gone. A closed group re-arms nothing.
//
// Each slot (seq % depth) keeps its task: op n+depth passes the member
// only after its re-arm ran, so the task is idle when the slot comes round
// — unless error completions outran the ops; then the slot takes a new one.
func reArmOn(cq *rdma.CQ, grp *protocol.Group, nic *rdma.NIC, depth int, arm func(seq uint64) error) {
	k := nic.Fabric().Kernel()
	tasks := make([]*reArm, depth)
	var completed uint64
	cq.SetDrainHandler(func(batch []rdma.CQE) {
		for range batch {
			slot := completed % uint64(depth)
			if t := tasks[slot]; t == nil || t.queued {
				t = &reArm{}
				t.fn = func() {
					switch {
					case grp.Closed():
					case nic.Down():
						k.AfterFunc(reArmDelay, t.fn, nil)
						return
					default:
						_ = arm(t.seq)
					}
					t.queued = false
				}
				tasks[slot] = t
			}
			t := tasks[slot]
			t.seq, t.queued = completed+uint64(depth), true
			completed++
			k.AfterFunc(reArmDelay, t.fn, nil)
		}
	})
}
