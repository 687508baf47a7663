// Package protocol defines the pluggable replication-strategy contract
// shared by every group datapath in this repository.
//
// A replication protocol takes the same inputs — one client NIC, a set of
// replica NICs on a common fabric, and a mirrored memory region of
// MirrorSize bytes at device offset 0 on every member — and provides the
// same group primitives: gWRITE, gCAS, gMEMCPY and gFLUSH, each in async
// (Signal-returning) and blocking (Fiber-taking) form, plus local mirror
// access, lifecycle (Close) and accounting (Stats, InFlight, Retried).
// That surface, Protocol, is implemented once, by Group. What differs per
// protocol is the dataflow between doorbell and completion, which is what
// a Strategy supplies:
//
//   - chain ("chain", internal/hyperloop.Group): the paper's §4 topology.
//     The op hops replica to replica through pre-posted WAIT-gated WQE
//     chains; the tail's WRITE_WITH_IMM is the group ACK. Total order,
//     2(G+1) messages per replicated write, but a single slow or dead hop
//     stalls the whole group.
//   - fan-out ("fanout", internal/hyperloop.FanoutGroup): the §7
//     extension. A primary NIC coordinates all backups in parallel and
//     aggregates their acks in hardware via absolute WAIT thresholds.
//   - broadcast ("bcast"/"bcast-maj", internal/hyperloop.BroadcastGroup):
//     ABD/Hermes-style. The client NIC fans value + metadata directly to
//     every replica and completes on a quorum of acks — all replicas for
//     "bcast" (Hermes-style strong mode), a majority for "bcast-maj"
//     (ABD-style, stays available across a minority of replica crashes).
//   - naive ("naive", internal/naive.Group): the §6 baseline — the chain
//     topology with replica CPUs on the critical path.
//
// Implementations register a Builder under a protocol name in their
// package init; Build constructs one over an Env (the cluster resources)
// and Params (mirror size, window depth, timeout/retry policy) — the same
// two inputs every datapath's Setup takes. Note the registry is populated
// by importing the implementing packages — callers that construct
// protocols by name must import internal/hyperloop and internal/naive (the
// root hyperloop package and internal/experiments both do).
//
// Group owns everything the primitives have in common: client mirror
// access, argument validation, sequence numbers, the in-flight window,
// per-op timeout timers, the retry loop, ApplyLocal (mirroring an op on
// the client's own copy, §4.1), the counters, the policy (Params) and the
// NICs' Hosts, and fail-all-then-tear-down Close. It drives a Strategy of
// one method — Transmit one (seq, kind, Op) — and the strategy reports
// each group ACK through Group.Complete. The concrete types embed *Group,
// so no protocol package defines a Protocol method of its own. Every
// strategy sets up each NIC through Group.Host, which records a Host, the
// only owner of NIC memory layout: it carves the mirror at offset 0 (so a
// NIC hosts one group at a time) and declares it the device's only
// durable memory, carves the volatile rings, staging and ack slots after
// it and owns the QPs and CQs; Close — also the end of a Setup that
// fails — destroys them all. Params is the one policy type (Params.Check the one validation and
// Window the one depth rule), and the canonical sentinel errors here are
// the only ones a datapath returns.
package protocol
