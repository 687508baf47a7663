package hyperloop

import "hyperloop/internal/protocol"

func init() {
	protocol.Register("chain",
		"NIC-offloaded chain replication (HyperLoop §4): total order, minimal per-NIC load",
		func(env protocol.Env, p protocol.Params) (protocol.Protocol, error) { return Setup(env, p) })
	protocol.Register("fanout",
		"NIC-offloaded primary fan-out (HyperLoop §7): primary NIC coordinates backups in parallel",
		func(env protocol.Env, p protocol.Params) (protocol.Protocol, error) { return SetupFanout(env, p) })
	protocol.Register("bcast",
		"client NIC broadcast, completes on all member acks (Hermes-style strong mode)",
		func(env protocol.Env, p protocol.Params) (protocol.Protocol, error) { return SetupBroadcast(env, p, 0) })
	protocol.Register("bcast-maj",
		"client NIC broadcast, completes on a majority of member acks (ABD-style)",
		func(env protocol.Env, p protocol.Params) (protocol.Protocol, error) {
			return SetupBroadcast(env, p, len(env.Replicas)/2+1)
		})
	// A majority-quorum write is only guaranteed on floor(G/2)+1 members;
	// every other protocol here completes on all members' acks.
	protocol.SetTraits("bcast-maj", protocol.Traits{
		AcksNeeded: func(g int) int { return g/2 + 1 },
	})
}
