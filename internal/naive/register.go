package naive

import (
	"fmt"

	"hyperloop/internal/protocol"
)

// ConfigFor translates the protocol-neutral policy knobs into this
// package's Config: DefaultConfig (event mode) with p's mirror, window,
// timeout/retry policy and wake penalty; zero values keep the defaults.
func ConfigFor(p protocol.Params) Config {
	cfg := DefaultConfig(p.MirrorSize)
	if p.Depth > 0 {
		cfg.Depth = p.Depth
	}
	cfg.OpTimeout = p.OpTimeout
	cfg.MaxRetries = p.MaxRetries
	cfg.RetryBackoff = p.RetryBackoff
	if p.WakePenalty > 0 {
		cfg.WakePenalty = p.WakePenalty
		cfg.WakePenaltyProb = p.WakePenaltyProb
	}
	return cfg
}

func init() {
	protocol.Register("naive",
		"chain replication with replica CPUs on the critical path (§6 baseline, event mode)",
		func(env protocol.Env, p protocol.Params) (protocol.Protocol, error) {
			if len(env.Scheds) != len(env.Replicas) {
				return nil, fmt.Errorf("%w: naive protocol needs one CPU scheduler per replica", ErrBadArgument)
			}
			return Setup(env.Fabric, env.Client, env.Replicas, env.Scheds, ConfigFor(p))
		})
	// The replica-side recv handler runs on the replicas' CPU schedulers,
	// so op latency is exposed to co-located tenant load (§2.2).
	protocol.SetTraits("naive", protocol.Traits{CPUDriven: true})
}
