// Package rdma models RDMA-capable NICs at the verbs level: queue pairs
// whose send queues are rings of binary work-queue entries (WQEs) living in
// registered host memory, completion queues, memory regions with remote-key
// protection, and the full opcode set HyperLoop needs — including the
// CORE-Direct-style WAIT verb and deferred WQE ownership that make
// group-based NIC offloading possible.
//
// Because send-queue WQEs are real bytes inside a registered memory region,
// a remote peer can patch the memory descriptors of pre-posted WQEs with
// ordinary RDMA operations — exactly the "remote work request manipulation"
// mechanism of HyperLoop §4.1.
package rdma

import (
	"encoding/binary"
	"fmt"
)

// Opcode identifies a WQE operation.
type Opcode uint8

// WQE opcodes. OpNop deliberately completes without side effects so a gCAS
// participant can be skipped by rewriting its CAS opcode (selective
// execution, §4.2).
const (
	OpNop Opcode = iota + 1
	OpSend
	OpRecv // only used in completion reporting; recv WQEs are posted via PostRecv
	OpWrite
	OpWriteImm
	_ // 6 was READ: no op takes the value, so ring bytes keep their meaning
	OpCAS
	OpWait
	OpMemcpy
	OpFlush
)

// String returns the opcode mnemonic.
func (o Opcode) String() string {
	switch o {
	case OpNop:
		return "NOP"
	case OpSend:
		return "SEND"
	case OpRecv:
		return "RECV"
	case OpWrite:
		return "WRITE"
	case OpWriteImm:
		return "WRITE_WITH_IMM"
	case OpCAS:
		return "CAS"
	case OpWait:
		return "WAIT"
	case OpMemcpy:
		return "MEMCPY"
	case OpFlush:
		return "FLUSH"
	default:
		return fmt.Sprintf("Opcode(%d)", uint8(o))
	}
}

// WQE flags.
const (
	// FlagOwned hands the WQE to the NIC. A WQE posted without it stalls
	// the send queue until a WAIT WQE enables it (HyperLoop's
	// modified-driver behaviour).
	FlagOwned uint8 = 1 << iota
	// FlagSignaled requests a completion-queue entry when the WQE
	// finishes.
	FlagSignaled
	// FlagWaitAbs makes an OpWait fire when the target CQ's cumulative
	// completion count reaches the WQE's Compare field, without consuming
	// completions. Several send queues can gate on the same CQ this way —
	// the fan-out topology needs it (one local completion set triggers
	// forwarding chains to every backup).
	FlagWaitAbs
)

// WQESize is the fixed on-ring footprint of one work-queue entry.
const WQESize = 64

// Byte offsets of WQE fields within a slot. Remote work-request
// manipulation patches these with RDMA writes or recv scatter entries.
const (
	wqeOffOpcode  = 0
	wqeOffFlags   = 1
	wqeOffImm     = 4  // imm data / WAIT completions-to-consume
	wqeOffLocal   = 8  // local address (source for SEND/WRITE/MEMCPY, dest for the CAS result)
	wqeOffLen     = 16 // byte length
	wqeOffRemote  = 24 // remote address (dest for WRITE/MEMCPY-dst/CAS target)
	wqeOffCompare = 32 // CAS compare value
	wqeOffSwap    = 40 // CAS swap value
	wqeOffAux1    = 48 // rkey, or CQN for WAIT
	wqeOffAux2    = 52 // WAIT: number of following WQEs to enable
	wqeOffWRID    = 56
	wqeDescOff    = wqeOffOpcode
	wqeDescLen    = 56 // opcode..aux2: everything a remote peer may patch
	wqeCASDescOff = wqeOffLocal
	wqeCASDescLen = 48 - wqeOffLocal // local..swap for CAS patching
)

// WQE is the decoded form of a work-queue entry.
type WQE struct {
	Opcode  Opcode
	Flags   uint8
	Imm     uint32 // immediate data; for OpWait: completions to consume
	Local   uint64 // local memory address (device offset)
	Len     uint64
	Remote  uint64 // remote memory address
	Compare uint64
	Swap    uint64
	Aux1    uint32 // rkey for remote ops; CQN for OpWait
	Aux2    uint32 // OpWait: count of subsequent WQEs to enable
	WRID    uint64
}

// Encode serializes the WQE into a WQESize-byte slot.
func (w *WQE) Encode(buf []byte) error {
	if len(buf) < WQESize {
		return fmt.Errorf("rdma: wqe buffer too small (%d bytes)", len(buf))
	}
	buf[wqeOffOpcode] = byte(w.Opcode)
	buf[wqeOffFlags] = w.Flags
	buf[2], buf[3] = 0, 0
	binary.LittleEndian.PutUint32(buf[wqeOffImm:], w.Imm)
	binary.LittleEndian.PutUint64(buf[wqeOffLocal:], w.Local)
	binary.LittleEndian.PutUint64(buf[wqeOffLen:], w.Len)
	binary.LittleEndian.PutUint64(buf[wqeOffRemote:], w.Remote)
	binary.LittleEndian.PutUint64(buf[wqeOffCompare:], w.Compare)
	binary.LittleEndian.PutUint64(buf[wqeOffSwap:], w.Swap)
	binary.LittleEndian.PutUint32(buf[wqeOffAux1:], w.Aux1)
	binary.LittleEndian.PutUint32(buf[wqeOffAux2:], w.Aux2)
	binary.LittleEndian.PutUint64(buf[wqeOffWRID:], w.WRID)
	return nil
}

// DecodeWQE parses a WQESize-byte slot.
func DecodeWQE(buf []byte) (WQE, error) {
	var w WQE
	if len(buf) < WQESize {
		return w, fmt.Errorf("rdma: wqe buffer too small (%d bytes)", len(buf))
	}
	w.decode(buf)
	return w, nil
}

// decode overwrites every field of w from a slot of at least WQESize
// bytes. The send engine decodes each slot in place, into the one WQE its
// QP owns.
func (w *WQE) decode(buf []byte) {
	_ = buf[WQESize-1]
	w.Opcode = Opcode(buf[wqeOffOpcode])
	w.Flags = buf[wqeOffFlags]
	w.Imm = binary.LittleEndian.Uint32(buf[wqeOffImm:])
	w.Local = binary.LittleEndian.Uint64(buf[wqeOffLocal:])
	w.Len = binary.LittleEndian.Uint64(buf[wqeOffLen:])
	w.Remote = binary.LittleEndian.Uint64(buf[wqeOffRemote:])
	w.Compare = binary.LittleEndian.Uint64(buf[wqeOffCompare:])
	w.Swap = binary.LittleEndian.Uint64(buf[wqeOffSwap:])
	w.Aux1 = binary.LittleEndian.Uint32(buf[wqeOffAux1:])
	w.Aux2 = binary.LittleEndian.Uint32(buf[wqeOffAux2:])
	w.WRID = binary.LittleEndian.Uint64(buf[wqeOffWRID:])
}

// SlotAddr returns the host-memory address of slot seq in a ring that
// starts at ringOff with ringSlots slots. Sequence numbers map onto the
// ring modulo its size, so both ends of a HyperLoop group can compute the
// same slot address for operation seq. It is setup-time address math: the
// send engine keeps its ring ends as slot indices and takes no modulo.
func SlotAddr(ringOff uint64, ringSlots int, seq uint64) uint64 {
	return ringOff + (seq%uint64(ringSlots))*WQESize
}

// DescAddr returns the host-memory address of the patchable descriptor
// portion (opcode through aux2) of slot seq.
func DescAddr(ringOff uint64, ringSlots int, seq uint64) uint64 {
	return SlotAddr(ringOff, ringSlots, seq) + wqeDescOff
}

// DescLen is the length in bytes of the patchable descriptor portion of a
// WQE slot.
const DescLen = wqeDescLen

// EncodeDesc serializes only the patchable descriptor fields (opcode
// through aux2) of w into buf; the flags byte keeps FlagOwned clear unless
// set in w, matching how a remote patch re-arms a deferred WQE.
func (w *WQE) EncodeDesc(buf []byte) error {
	if len(buf) < wqeDescLen {
		return fmt.Errorf("rdma: desc buffer too small (%d bytes)", len(buf))
	}
	var full [WQESize]byte
	if err := w.Encode(full[:]); err != nil {
		return err
	}
	copy(buf, full[wqeDescOff:wqeDescOff+wqeDescLen])
	return nil
}
