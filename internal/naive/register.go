package naive

import "hyperloop/internal/protocol"

// Builder returns the baseline's protocol.Builder with tune applied to
// DefaultConfig: a replica mode or handler costs that protocol.Params
// does not carry travel as the builder itself. A nil tune is the
// registry's "naive".
func Builder(tune func(*Config)) protocol.Builder {
	return func(env protocol.Env, p protocol.Params) (protocol.Protocol, error) {
		cfg := DefaultConfig()
		if tune != nil {
			tune(&cfg)
		}
		return Setup(env, p, cfg)
	}
}

func init() {
	protocol.Register("naive",
		"chain replication with replica CPUs on the critical path (§6 baseline, event mode)",
		Builder(nil))
	// The replica-side recv handler runs on the replicas' CPU schedulers,
	// so op latency is exposed to co-located tenant load (§2.2).
	protocol.SetTraits("naive", protocol.Traits{CPUDriven: true})
}
