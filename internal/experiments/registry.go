package experiments

import (
	"fmt"
	"slices"

	"hyperloop/internal/report"
)

// runFn is an experiment entry point. rc identifies the run: the trials
// an experiment schedules report their counters into rc's StatSink, and
// when the two-level scheduler dispatched the run, trials also draw slots
// from rc's shared cross-experiment budget. A refuted claim is not an
// error: it is a Report whose checks failed.
type runFn func(rc *runCtx, seed uint64, scale Scale) (*report.Report, error)

// entry is one registered id: its entry point and its description for
// listings.
type entry struct {
	id   string
	fn   runFn
	desc string
}

// registry lists every id in presentation order: the paper's experiments
// as they appear in it, then the claim scenarios — cheap wire-level claims
// first, the recovery and durability scenarios after, the CPU scheduling
// claim last.
var registry = []entry{
	{"fig2a", fig2a, "latency & context switches vs replica-sets per server (§2.2)"},
	{"fig2b", fig2b, "latency vs cores per machine (§2.2)"},
	{"table3", table3, "YCSB workload definitions (§6.2)"},
	{"fig8a", fig8a, "gWRITE latency vs message size (§6.1)"},
	{"fig8b", fig8b, "gMEMCPY latency vs message size (§6.1)"},
	{"table2", table2, "gCAS latency statistics (§6.1)"},
	{"fig9", fig9, "gWRITE throughput + critical-path CPU (§6.1)"},
	{"fig10", fig10, "p99 gWRITE latency vs group size (§6.1)"},
	{"fig11", fig11, "KV store YCSB-A latency across backends (§6.2)"},
	{"fig12", fig12, "document store latency across YCSB workloads (§6.2)"},
	{"abl-load", ablationNoLoad, "ablation: co-located load is the root cause"},
	{"abl-flush", ablationFlush, "ablation: gFLUSH durability cost"},
	{"abl-depth", ablationDepth, "ablation: pre-armed window depth"},
	{"abl-fanout", ablationFanout, "ablation: chain vs fan-out topology (§7)"},
	{"abl-consistency", ablationConsistency, "ablation: weaker consistency models (§7)"},
	{"failover", failover, "mid-chain replica crash: detection, catch-up, resume (§5)"},
	{"protocols", protocolsExp, "replication protocol comparison: latency, message cost, availability"},
	{"shards", shardsExp, "sharded scale-out: placement, tenant skew, cross-shard 2PC"},

	{"retry-vs-loss", retryVsLoss, "claim: sweep wire drop probability 0→5% per protocol, count retries and failures"},
	{"multi-failure", multiFailure, "claim: crash client + replica NICs ~50µs apart mid-run, restart both, per protocol"},
	{"partition-failover", partitionFailover, "claim: crash mid-chain replica, partition the client↔head link across the whole recovery"},
	{"flush-storm", flushStorm, "claim: crash/restart storm across members, then power-fail every device and audit durable images"},
	{"2pc-recovery", recovery2PC, "claim: kill the coordinator after every 2PC step across spans 1/2/4, recover, audit visibility/locks/log"},
	{"tenant-interference", tenantInterference, "claim: sweep per-core tenant noise on replica CPUs, compare p99 write latency per protocol"},
}

// lookup returns the registry entry for id.
func lookup(id string) (entry, bool) {
	i := slices.IndexFunc(registry, func(e entry) bool { return e.id == id })
	if i < 0 {
		return entry{}, false
	}
	return registry[i], true
}

// Order lists every id in presentation order.
func Order() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Names returns all experiment ids, sorted.
func Names() []string {
	ids := Order()
	slices.Sort(ids)
	return ids
}

// Describe returns an experiment's one-line description.
func Describe(name string) string {
	e, _ := lookup(name)
	return e.desc
}

// runWith executes the named experiment for the run rc. Every trial has
// ended when the entry returns, so the report's counters are complete.
func runWith(rc *runCtx, name string, seed uint64, scale Scale) (*report.Report, error) {
	e, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	rep, err := e.fn(rc, seed, scale)
	if err != nil {
		return nil, err
	}
	rep.Counters = rc.stats().Counters
	return rep, nil
}

// Run executes the named experiment.
func Run(name string, seed uint64, scale Scale) (*report.Report, error) {
	r, _, err := RunStats(name, seed, scale)
	return r, err
}

// RunStats executes the named experiment and returns, alongside the
// report (whose Counters it carries), the run's whole StatSink, leak
// counters included. The deterministic fields (see StatSink) are identical
// at any -procs setting and whether or not other experiments ran
// concurrently.
func RunStats(name string, seed uint64, scale Scale) (*report.Report, StatSink, error) {
	rc := &runCtx{}
	rep, err := runWith(rc, name, seed, scale)
	return rep, rc.stats(), err
}
