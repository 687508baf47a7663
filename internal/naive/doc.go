// Package naive implements the Naive-RDMA baseline of the HyperLoop paper
// (§6, "Baseline RDMA implementation"): the same group primitives and chain
// topology as package hyperloop, but with replica CPUs on the critical
// path. Each replica runs a handler process in the cpusim scheduler that
// receives, parses, executes and forwards every operation. Under
// multi-tenant CPU load this is where the paper's tail latency comes from.
//
// Three replica modes mirror the paper's comparisons:
//   - ModeEvent: the handler sleeps and is woken per completion event
//     (interrupt-driven; pays scheduling delay per hop).
//   - ModePolling: the handler busy-polls but shares cores with other
//     tenants (the contended polling of Fig. 11).
//   - ModePinned: the handler busy-polls on a dedicated core (best case;
//     economically non-viable at scale, per §2.2).
//
// Group embeds the protocol.Group that drives it (so it is a
// protocol.Protocol); ModeEvent is registered with the protocol registry
// as "naive" at init. Setup takes the same Env and Params as every
// datapath plus a Config, the replica-CPU cost model: the other modes are
// selected through it (naive.Builder) by the experiments that compare
// them.
package naive
