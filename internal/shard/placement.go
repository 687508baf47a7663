package shard

import (
	"fmt"

	"hyperloop/internal/protocol"
	"hyperloop/internal/topo"
)

// Placement maps shard replicas onto a rack of servers. The simulated rack
// hosts many NICs per server (SR-IOV style): a server contributes its CPU
// schedulers and fabric ports, and each shard replica placed on it gets a
// dedicated NIC+device there (mirrors live at device offset 0, so replicas
// never share a device).

// PlacementPolicy selects how shard replicas spread across servers.
type PlacementPolicy int

const (
	// RoundRobin stripes replicas across all servers uniformly —
	// maximizes spread, so a hot tenant's load lands everywhere.
	RoundRobin PlacementPolicy = iota
	// TenantAffinity packs each tenant's shards onto the same few
	// servers — contains a hot tenant's interference to its own racks.
	TenantAffinity
)

func (p PlacementPolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case TenantAffinity:
		return "tenant-affinity"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// Place assigns each of shards × replicas replica slots to a server index
// in [0, servers). tenantOf maps a shard to its owning tenant and is only
// consulted by TenantAffinity. Replicas of one shard always land on
// distinct servers (requires replicas ≤ servers). The result is
// deterministic: result[shard][replica] = server.
func Place(policy PlacementPolicy, shards, replicas, servers int, tenantOf func(shard int) int) ([][]int, error) {
	if shards < 1 || replicas < 1 || servers < 1 {
		return nil, fmt.Errorf("%w: shards, replicas and servers must be positive", ErrBadArgument)
	}
	if replicas > servers {
		return nil, fmt.Errorf("%w: %d replicas need at least that many servers, have %d", ErrBadArgument, replicas, servers)
	}
	if policy == TenantAffinity && tenantOf == nil {
		return nil, fmt.Errorf("%w: tenant-affinity placement needs tenantOf", ErrBadArgument)
	}
	out := make([][]int, shards)
	for s := 0; s < shards; s++ {
		base := s * replicas
		if policy == TenantAffinity {
			t := tenantOf(s)
			if t < 0 {
				// Go's % keeps the sign: the row would name a negative server.
				return nil, fmt.Errorf("%w: tenantOf(%d) = %d, tenants are numbered from 0", ErrBadArgument, s, t)
			}
			base = t * replicas
		}
		row := make([]int, replicas)
		for j := 0; j < replicas; j++ {
			row[j] = (base + j) % servers
		}
		out[s] = row
	}
	return out, nil
}

// RackBackends returns the build callback New needs, every group built by
// b through rack r: shard id's replicas go on servers place[id] under the
// name sh<id>; the coordinator's group, which New asks for first, is
// "coord" with replica j on server j.
func RackBackends(r *topo.Rack, cfg Config, place [][]int, b protocol.Builder, p protocol.Params) func(id int) (Backend, error) {
	return func(id int) (Backend, error) {
		var g topo.GroupSpec
		if id == Coordinator {
			g = topo.GroupSpec{Name: "coord", Servers: topo.FirstServers(len(place[0])), Mirror: cfg.CoordMirrorSize()}
		} else {
			g = topo.GroupSpec{Name: fmt.Sprintf("sh%d", id), Servers: place[id], Mirror: cfg.MirrorSize()}
		}
		grp, err := r.Group(g, b, p)
		if err != nil {
			return nil, err
		}
		return grp, nil
	}
}
