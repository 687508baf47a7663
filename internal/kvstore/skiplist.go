// Package kvstore is a RocksDB-like embedded, replicated key-value store
// (§5.1): an in-memory memtable (skiplist) in front of a replicated
// write-ahead log on NVM, with checkpoints that truncate the log. As in
// §5.1 the checkpoint is synced off the critical path: it is streamed
// from a copy-on-write snapshot of the memtable behind the foreground
// Puts, one small piece per Put, and no image of it is ever built in
// memory. All critical-path persistence goes through the group primitives
// (txn.Store over either the HyperLoop or Naive-RDMA backend); replica
// in-memory views are refreshed off the critical path and are therefore
// eventually consistent, exactly as in the paper's port.
package kvstore

import (
	"bytes"

	"hyperloop/internal/sim"
)

const maxHeight = 16

// skipNode is one tower in the skiplist.
type skipNode struct {
	key   []byte
	value []byte // nil encodes a tombstone
	next  []*skipNode
	// The node's part in a snapshot (skiplist.snapshot): the snapshot
	// current when it was inserted, and the one whose value old keeps.
	born, stashed uint32
	old           []byte
}

// skiplist is a deterministic (seeded) ordered map from byte keys to byte
// values. It is the memtable of the store.
//
// It keeps one copy-on-write snapshot at a time, which the checkpoint
// stream encodes while Puts go on. snapshot numbers it; until release, the
// first overwrite of a node keeps the node's value as of the snapshot in
// the node (old), and a node inserted meanwhile is absent from it. Nodes
// are never unlinked (a delete is a tombstone), so the snapshot is the
// nodes born before it, each with old if stashed, else its value: nothing
// is copied and nothing is allocated.
type skiplist struct {
	head     *skipNode
	rng      *sim.RNG
	height   int
	size     int    // live (non-tombstone) entries
	body     int    // checkpoint body bytes of the live entries
	epoch    uint32 // the latest snapshot
	snapping bool   // that snapshot is held
}

func newSkiplist(rng *sim.RNG) *skiplist {
	return &skiplist{
		head:   &skipNode{next: make([]*skipNode, maxHeight)},
		rng:    rng,
		height: 1,
	}
}

func (s *skiplist) randomHeight() int {
	h := 1
	for h < maxHeight && s.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// findGreaterOrEqual returns the first node with key >= key, also filling
// prev with the rightmost node before it at every level.
func (s *skiplist) findGreaterOrEqual(key []byte, prev []*skipNode) *skipNode {
	x := s.head
	for level := s.height - 1; level >= 0; level-- {
		for x.next[level] != nil && bytes.Compare(x.next[level].key, key) < 0 {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// put inserts or replaces key. A nil value stores a tombstone.
func (s *skiplist) put(key, value []byte) {
	prev := make([]*skipNode, maxHeight)
	for i := range prev {
		prev[i] = s.head
	}
	n := s.findGreaterOrEqual(key, prev)
	if n != nil && bytes.Equal(n.key, key) {
		if s.snapping && n.stashed != s.epoch && n.born != s.epoch {
			n.old, n.stashed = n.value, s.epoch
		}
		if n.value != nil {
			s.size--
			s.body -= pairHeaderSize + len(key) + len(n.value)
		}
		if value != nil {
			s.size++
			s.body += pairHeaderSize + len(key) + len(value)
		}
		n.value = value
		return
	}
	h := s.randomHeight()
	if h > s.height {
		s.height = h
	}
	node := &skipNode{
		key:   append([]byte(nil), key...),
		value: value,
		next:  make([]*skipNode, h),
		born:  s.epoch,
	}
	for level := 0; level < h; level++ {
		node.next[level] = prev[level].next[level]
		prev[level].next[level] = node
	}
	if value != nil {
		s.size++
		s.body += pairHeaderSize + len(key) + len(value)
	}
}

// snapshot takes a new snapshot of the memtable and holds it until
// release.
func (s *skiplist) snapshot() {
	s.epoch++
	s.snapping = true
}

// release stops keeping the snapshot's values.
func (s *skiplist) release() { s.snapping = false }

// snapNext returns the first node after n that is live in the held
// snapshot, and its value there.
func (s *skiplist) snapNext(n *skipNode) (*skipNode, []byte) {
	for n = n.next[0]; n != nil; n = n.next[0] {
		v := n.value
		switch {
		case n.born == s.epoch:
			continue // inserted after the snapshot
		case n.stashed == s.epoch:
			v = n.old
		}
		if v != nil {
			return n, v
		}
	}
	return nil, nil
}

// get returns the value for key; ok distinguishes found from missing, and
// a found tombstone returns (nil, true, true).
func (s *skiplist) get(key []byte) (value []byte, found, tombstone bool) {
	n := s.findGreaterOrEqual(key, nil)
	if n == nil || !bytes.Equal(n.key, key) {
		return nil, false, false
	}
	if n.value == nil {
		return nil, true, true
	}
	return n.value, true, false
}

// scan returns up to max live entries with key >= start, in order.
func (s *skiplist) scan(start []byte, max int) []kvPair {
	var out []kvPair
	n := s.findGreaterOrEqual(start, nil)
	for n != nil && len(out) < max {
		if n.value != nil {
			out = append(out, kvPair{key: n.key, value: n.value})
		}
		n = n.next[0]
	}
	return out
}

type kvPair struct {
	key   []byte
	value []byte
}
