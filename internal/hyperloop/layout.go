package hyperloop

import (
	"encoding/binary"

	"hyperloop/internal/rdma"
)

// Metadata message layout (all values little-endian):
//
//	hop i message = [descBlock_i][descBlock_{i+1}]...[descBlock_G][results 8*G][header 16]
//
// descBlock is four patchable WQE descriptors (L1, L2, F1, F2).
const (
	descBlockSize = 4 * rdma.DescLen // 224 bytes per hop
	headerSize    = 16               // seq uint64, kind uint32, reserved uint32
	resultEntry   = 8                // one uint64 per group member
)

// layout captures the derived sizes of a group with G replicas.
type layout struct {
	groupSize int
}

// metaLen returns the metadata message size arriving at hop i (1-based).
func (l layout) metaLen(i int) int {
	return (l.groupSize-i+1)*descBlockSize + l.resultsLen() + headerSize
}

// metaRest returns the bytes forwarded past hop i: the arriving message
// minus the descriptor block the hop consumed.
func (l layout) metaRest(i int) int {
	return l.metaLen(i) - descBlockSize
}

func (l layout) resultsLen() int { return l.groupSize * resultEntry }

// putHeader writes an operation's header: seq, kind, then the reserved word.
func putHeader(b []byte, seq uint64, kind opKind) {
	binary.LittleEndian.PutUint64(b, seq)
	binary.LittleEndian.PutUint32(b[8:], uint32(kind))
	binary.LittleEndian.PutUint32(b[12:], 0)
}

// resultOffsetInStaging returns where node j's (1-based) gCAS result lives
// within hop i's staging slot (which holds metaRest(i) bytes:
// descs for hops i+1..G, then results, then header).
func (l layout) resultOffsetInStaging(i, j int) int {
	return (l.groupSize-i)*descBlockSize + (j-1)*resultEntry
}

// chain slot indices within a ring for operation seq: each op consumes
// three slots (WAIT, op A, op B) on both the loopback and next-hop rings.
const slotsPerOp = 3

func chainSlotA(seq uint64) uint64 { return seq*slotsPerOp + 1 }
func chainSlotB(seq uint64) uint64 { return seq*slotsPerOp + 2 }
