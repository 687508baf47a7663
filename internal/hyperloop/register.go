package hyperloop

import "hyperloop/internal/protocol"

// cfgFromParams translates the protocol-neutral policy knobs into this
// package's Config; zero values keep each Setup's defaults. The broadcast
// builders set AckQuorum themselves.
func cfgFromParams(p protocol.Params) Config {
	return Config{
		MirrorSize:   p.MirrorSize,
		Depth:        p.Depth,
		OpTimeout:    p.OpTimeout,
		MaxRetries:   p.MaxRetries,
		RetryBackoff: p.RetryBackoff,
	}
}

func init() {
	protocol.Register("chain",
		"NIC-offloaded chain replication (HyperLoop §4): total order, minimal per-NIC load",
		func(env protocol.Env, p protocol.Params) (protocol.Protocol, error) {
			return Setup(env.Fabric, env.Client, env.Replicas, cfgFromParams(p))
		})
	protocol.Register("fanout",
		"NIC-offloaded primary fan-out (HyperLoop §7): primary NIC coordinates backups in parallel",
		func(env protocol.Env, p protocol.Params) (protocol.Protocol, error) {
			return SetupFanout(env.Fabric, env.Client, env.Replicas, cfgFromParams(p))
		})
	protocol.Register("bcast",
		"client NIC broadcast, completes on all member acks (Hermes-style strong mode)",
		func(env protocol.Env, p protocol.Params) (protocol.Protocol, error) {
			return SetupBroadcast(env.Fabric, env.Client, env.Replicas, cfgFromParams(p))
		})
	protocol.Register("bcast-maj",
		"client NIC broadcast, completes on a majority of member acks (ABD-style)",
		func(env protocol.Env, p protocol.Params) (protocol.Protocol, error) {
			cfg := cfgFromParams(p)
			cfg.AckQuorum = len(env.Replicas)/2 + 1
			return SetupBroadcast(env.Fabric, env.Client, env.Replicas, cfg)
		})
	// A majority-quorum write is only guaranteed on floor(G/2)+1 members;
	// every other protocol here completes on all members' acks.
	protocol.SetTraits("bcast-maj", protocol.Traits{
		AcksNeeded: func(g int) int { return g/2 + 1 },
	})
}
