package experiments

import (
	"hyperloop/internal/protocol"
	"hyperloop/internal/report"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
)

// The claim scenarios. Each states one falsifiable claim the paper or this
// reproduction makes about fault handling or durability, runs a
// deterministic simulated scenario that could refute it, and records named
// checks beside its tables: an experiment regenerates a number, a scenario
// defends a sentence. A scenario is an ordinary registry entry — its
// deployments are trials on the arena, its counters the run's StatSink —
// whose Report carries a Claim and renders as a FINDINGS.md artifact.

// deploy builds a scenario deployment through the trial's arena: spec's
// rack and the named protocol over all of its servers. Zero fields take the
// scenarios' defaults: 3 servers of 8 cores, a 256 KB mirror.
func deploy(ar *trialArena, spec topo.Spec, proto string, p protocol.Params) (*cluster, error) {
	if spec.Servers == 0 {
		spec.Servers = 3
	}
	if spec.Cores == 0 {
		spec.Cores = 8
	}
	if p.MirrorSize == 0 {
		p.MirrorSize = 256 << 10
	}
	spec.Alloc = ar
	return newCluster(spec, protocol.Named(proto), p)
}

// driver names the one driver fiber a scenario runs on its deployment.
const driver = "hypothesis-driver"

// fd formats a virtual duration for notes and observations.
func fd(d sim.Duration) string { return report.FormatDuration(d) }

// at is a virtual instant as an offset from t=0.
func at(t sim.Time) sim.Duration { return t.Sub(sim.Time(0)) }
