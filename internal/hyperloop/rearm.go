package hyperloop

import (
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// reArmAfter schedules one off-critical-path chain re-arm. A down NIC
// defers the re-arm instead of dropping it: a NIC outage doesn't kill the
// member host, whose control path keeps retrying its replenishment until
// the link returns. Dropping the re-arm would permanently shrink the
// pre-posted window — enough crash/restart cycles and the group wedges
// with every receive slot gone.
func reArmAfter(k *sim.Kernel, grp *protocol.Group, nic *rdma.NIC, d sim.Duration, arm func()) {
	var fn func()
	fn = func() {
		if grp.Closed() {
			return
		}
		if nic.Down() {
			k.AfterFunc(d, fn, nil)
			return
		}
		arm()
	}
	k.AfterFunc(d, fn, nil)
}
