// Package hyperloop implements the HyperLoop group-based NIC-offloading
// primitives (SIGCOMM 2018): gWRITE, gCAS, gMEMCPY and gFLUSH over a chain
// of replicas, executed entirely by the NICs — replica CPUs are not on the
// datapath.
//
// # How an operation flows
//
// Every replica pre-posts, per operation sequence number, two WAIT-gated
// WQE chains plus one receive with a scatter list that points INTO the
// pre-posted WQE slots:
//
//	loopback QP:  [WAIT(recvCQ,1) → L1 → L2]   local ops (CAS/MEMCPY/FLUSH)
//	next-hop QP:  [WAIT(loopCQ,2) → F1 → F2]   forwarding (data WRITE + meta SEND)
//
// The client issues an operation by (optionally) RDMA-WRITEing data to the
// first replica's mirror region and then SENDing a metadata message whose
// head is the descriptor block for that hop. The receive scatter lands the
// descriptor block directly in the pre-posted WQE slots (remote work
// request manipulation, §4.1), and the remainder in a staging buffer. The
// receive completion triggers the loopback WAIT, which enables the patched
// local operations; their completions trigger the next-hop WAIT, which
// enables the data WRITE and the metadata SEND toward the next replica.
// The metadata message "peels" one descriptor block per hop. The tail's F2
// is a WRITE_WITH_IMM carrying the accumulated gCAS result map back to the
// client as the group ACK.
//
// No replica CPU cycle is spent between the client's doorbell and the
// ACK: the package never touches the cpusim scheduler.
//
// # Topologies
//
// The package provides three NIC-offloaded replication topologies. Each
// is a protocol.Strategy (Transmit) embedding the
// protocol.Group that drives it, and is registered with the protocol
// registry at init:
//
//   - Group ("chain"): the §4 chain above — total order, minimal
//     per-NIC load, one slow hop stalls the group.
//   - FanoutGroup ("fanout"): the §7 primary-coordinated fan-out — a
//     primary NIC drives all backups in parallel and aggregates acks in
//     hardware with absolute WAIT thresholds.
//   - BroadcastGroup ("bcast", "bcast-maj"): client-driven broadcast —
//     the client NIC fans the value to every replica directly and the
//     client completes an op on a configurable quorum of NIC-generated
//     acks ("bcast" waits for all, "bcast-maj" for a majority).
//
// The three share their parts: each Setup takes (protocol.Env,
// protocol.Params) and validates the policy with Params.Check (the
// broadcast adds its quorum), every NIC is carved through the embedded
// group's Host (the durable mirror at offset 0, then volatile rings,
// staging and ack slots; Close destroys them, also when Setup fails),
// every member — chain replica, fan-out primary, leafMember — embeds one
// member core whose armLoop posts the loopback block and whose receive
// scatter lists are built per window slot at setup, every member's L1/L2
// block is one encodeLocalBlock, the chain, fan-out and broadcast clients
// post through one postToHead, the chain and fan-out client decode one
// groupAck, and every member re-arms its window through one reArmOn.
package hyperloop
