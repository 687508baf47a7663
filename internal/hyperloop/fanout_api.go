package hyperloop

import "hyperloop/internal/rdma"

// ReplicaNIC returns member i's NIC (0 = primary, i>0 = backup i).
func (g *FanoutGroup) ReplicaNIC(i int) *rdma.NIC {
	if i == 0 {
		return g.primary.nic
	}
	return g.backups[i-1].nic
}

// ClientNIC returns the client's NIC.
func (g *FanoutGroup) ClientNIC() *rdma.NIC { return g.client }

// Teardown is the fan-out's half of Close (protocol.Strategy): every QP
// and CQ the group created is destroyed so the NICs can host a new group.
func (g *FanoutGroup) Teardown() {
	for _, h := range g.hosts {
		h.Destroy()
	}
}
