package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
	"hyperloop/internal/wal"
)

// KV op codes inside WAL entries.
const (
	opPut    = 1
	opDelete = 2
)

// Checkpoint framing in the data region.
const (
	ckptMagic      = 0x484C4B56 // "HLKV"
	ckptHeaderSize = 4 + 4 + 4 + 4
	pairHeaderSize = 2 + 4 // klen u16, vlen u32
)

// emptyValue is the value a Put of no bytes stores: the memtable reads a
// nil value as a tombstone, so an empty one must not be nil.
var emptyValue = []byte{}

// Errors returned by the store.
var (
	ErrClosed      = errors.New("kvstore: closed")
	ErrTooLarge    = errors.New("kvstore: key/value too large")
	ErrBadArgument = errors.New("kvstore: bad argument")
)

// Config parameterizes a DB.
type Config struct {
	// LogSize / DataSize size the txn store regions; the group's mirror
	// must be at least txn.MirrorSizeFor(LogSize, DataSize).
	LogSize  int
	DataSize int
	// CheckpointEvery triggers a checkpoint + log truncation after this
	// many mutations (0 = only when the log fills).
	CheckpointEvery int
	// Seed makes the memtable deterministic.
	Seed uint64
}

// DefaultConfig sizes the store for the YCSB benchmarks.
func DefaultConfig() Config {
	return Config{
		LogSize:         256 * 1024,
		DataSize:        1 << 20,
		CheckpointEvery: 0,
		Seed:            1,
	}
}

// MirrorSizeFor returns the group mirror size cfg requires.
func MirrorSizeFor(cfg Config) int { return txn.MirrorSizeFor(cfg.LogSize, cfg.DataSize) }

// Stats counts store activity.
type Stats struct {
	Puts        int64
	Deletes     int64
	Gets        int64
	Scans       int64
	Checkpoints int64
	Recoveries  int64
}

// DB is the replicated key-value store. The memtable answers reads; every
// mutation is durably replicated through the write-ahead log before it is
// acknowledged (§5.1: "uses Append to replicate log records to replicas'
// NVM instead of the native unreplicated append").
type DB struct {
	st    *txn.Store
	cfg   Config
	mem   *skiplist
	stats Stats

	mutations int
	opBuf     []byte     // the op record; Append copies it into the log
	ckpt      ckptStream // the checkpoint being written, one chunk at a time
}

// Open builds a DB over a replication group (either backend).
func Open(r txn.Replicator, cfg Config) (*DB, error) {
	if cfg.LogSize <= 0 || cfg.DataSize <= 0 {
		return nil, fmt.Errorf("%w: region sizes must be positive", ErrBadArgument)
	}
	st, err := txn.New(r, txn.Config{LogSize: cfg.LogSize, DataSize: cfg.DataSize})
	if err != nil {
		return nil, err
	}
	return &DB{
		st:  st,
		cfg: cfg,
		mem: newSkiplist(sim.NewRNG(cfg.Seed)),
	}, nil
}

// Store exposes the underlying transaction store (for examples/tests).
func (db *DB) Store() *txn.Store { return db.st }

// Stats returns activity counters.
func (db *DB) Stats() Stats { return db.stats }

// Len returns the number of live keys.
func (db *DB) Len() int { return db.mem.size }

// encodeOp appends the op record to buf.
func encodeOp(buf []byte, op byte, key, value []byte) []byte {
	buf = append(buf, op, 0, 0)
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(key)))
	buf = append(buf, key...)
	return append(buf, value...)
}

func decodeOp(data []byte) (op byte, key, value []byte, err error) {
	if len(data) < 3 {
		return 0, nil, nil, fmt.Errorf("kvstore: short op record")
	}
	op = data[0]
	klen := int(binary.LittleEndian.Uint16(data[1:]))
	if 3+klen > len(data) {
		return 0, nil, nil, fmt.Errorf("kvstore: truncated key")
	}
	return op, data[3 : 3+klen], data[3+klen:], nil
}

// Put durably replicates and applies a key-value write. The memtable keeps
// value itself, not a copy: the caller must not modify it afterwards. A nil
// value is stored as an empty one, not as a delete.
func (db *DB) Put(f *sim.Fiber, key, value []byte) error {
	if value == nil {
		value = emptyValue
	}
	return db.mutate(f, opPut, key, value)
}

// Delete durably replicates and applies a tombstone.
func (db *DB) Delete(f *sim.Fiber, key []byte) error {
	return db.mutate(f, opDelete, key, nil)
}

func (db *DB) mutate(f *sim.Fiber, op byte, key, value []byte) error {
	if len(key) == 0 || len(key) > 1<<16-1 {
		return fmt.Errorf("%w: key length %d", ErrBadArgument, len(key))
	}
	db.opBuf = encodeOp(db.opBuf[:0], op, key, value)
	rec := [1]wal.Entry{{Off: 0, Data: db.opBuf}}
	_, err := db.st.Append(f, rec[:])
	if errors.Is(err, txn.ErrLogFull) {
		if cerr := db.Checkpoint(f); cerr != nil {
			return cerr
		}
		_, err = db.st.Append(f, rec[:])
	}
	if err != nil {
		return err
	}
	if op == opPut {
		db.mem.put(key, value)
		db.stats.Puts++
	} else {
		db.mem.put(key, nil)
		db.stats.Deletes++
	}
	db.mutations++
	if db.cfg.CheckpointEvery > 0 && db.mutations >= db.cfg.CheckpointEvery {
		return db.Checkpoint(f)
	}
	return nil
}

// Get returns the value for key from the memtable (strongly consistent:
// the memtable only reflects acknowledged, replicated writes). It is the
// stored slice itself, read-only.
func (db *DB) Get(key []byte) ([]byte, bool) {
	db.stats.Gets++
	v, found, tomb := db.mem.get(key)
	if !found || tomb {
		return nil, false
	}
	return v, true
}

// Pair is a key-value pair returned by Scan.
type Pair struct {
	Key   []byte
	Value []byte
}

// Scan returns up to max live pairs with key >= start in order.
func (db *DB) Scan(start []byte, max int) []Pair {
	db.stats.Scans++
	var out []Pair
	for _, p := range db.mem.scan(start, max) {
		out = append(out, Pair{Key: p.key, Value: p.value})
	}
	return out
}

// ckptStream encodes the memtable as a checkpoint image without ever
// holding the image: start walks the memtable once for the header's pair
// count, body length and body CRC; chunk then walks it again, copying the
// header and each pair's pieces — lengths, key, value — into one chunk
// buffer that WriteFrom stages and posts before asking for the next.
type ckptStream struct {
	buf   []byte // the chunk being built
	hdr   [ckptHeaderSize]byte
	lens  [pairHeaderSize]byte // node's klen and vlen
	node  *skipNode            // the pair being emitted
	part  int                  // node's next piece: 0 lengths, 1 key, 2 value
	piece []byte               // what is left of the piece being emitted
}

// nextLive returns the first live node after n: checkpoints drop
// tombstones, since they capture full state.
func nextLive(n *skipNode) *skipNode {
	for n = n.next[0]; n != nil && n.value == nil; n = n.next[0] {
	}
	return n
}

// setLens encodes n's key and value lengths into c.lens.
func (c *ckptStream) setLens(n *skipNode) {
	binary.LittleEndian.PutUint16(c.lens[0:], uint16(len(n.key)))
	binary.LittleEndian.PutUint32(c.lens[2:], uint32(len(n.value)))
}

// start readies c to stream mem's image and returns the image's size.
func (c *ckptStream) start(mem *skiplist) int {
	count, bodyLen, crc := 0, 0, uint32(0)
	for n := nextLive(mem.head); n != nil; n = nextLive(n) {
		c.setLens(n)
		crc = crc32.Update(crc, crc32.IEEETable, c.lens[:])
		crc = crc32.Update(crc, crc32.IEEETable, n.key)
		crc = crc32.Update(crc, crc32.IEEETable, n.value)
		bodyLen += pairHeaderSize + len(n.key) + len(n.value)
		count++
	}
	binary.LittleEndian.PutUint32(c.hdr[0:], ckptMagic)
	binary.LittleEndian.PutUint32(c.hdr[4:], uint32(count))
	binary.LittleEndian.PutUint32(c.hdr[8:], uint32(bodyLen))
	binary.LittleEndian.PutUint32(c.hdr[12:], crc)
	c.node, c.part, c.piece = mem.head, 0, c.hdr[:]
	return ckptHeaderSize + bodyLen
}

// chunk returns the image's next n bytes, built in c's one buffer; the
// chunks are asked for in order, so where they start is already known.
func (c *ckptStream) chunk(_, n int) []byte {
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	for dst := c.buf[:n]; len(dst) > 0; {
		if len(c.piece) == 0 {
			c.nextPiece()
			continue
		}
		k := copy(dst, c.piece)
		dst, c.piece = dst[k:], c.piece[k:]
	}
	return c.buf[:n]
}

// nextPiece moves c on to the next piece of the body.
func (c *ckptStream) nextPiece() {
	switch c.part {
	case 0:
		c.node = nextLive(c.node)
		c.setLens(c.node)
		c.piece = c.lens[:]
	case 1:
		c.piece = c.node.key
	case 2:
		c.piece = c.node.value
	}
	c.part = (c.part + 1) % 3
}

// decodeCheckpoint parses a checkpoint image into key-value pairs.
func decodeCheckpoint(img []byte) ([]Pair, error) {
	if len(img) < ckptHeaderSize {
		return nil, fmt.Errorf("kvstore: checkpoint too small")
	}
	if binary.LittleEndian.Uint32(img[0:]) != ckptMagic {
		return nil, fmt.Errorf("kvstore: no checkpoint")
	}
	count := int(binary.LittleEndian.Uint32(img[4:]))
	bodyLen := int(binary.LittleEndian.Uint32(img[8:]))
	wantCRC := binary.LittleEndian.Uint32(img[12:])
	if ckptHeaderSize+bodyLen > len(img) {
		return nil, fmt.Errorf("kvstore: truncated checkpoint")
	}
	body := img[ckptHeaderSize : ckptHeaderSize+bodyLen]
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, fmt.Errorf("kvstore: checkpoint crc mismatch")
	}
	var pairs []Pair
	p := 0
	for i := 0; i < count; i++ {
		if p+pairHeaderSize > len(body) {
			return nil, fmt.Errorf("kvstore: truncated checkpoint entry")
		}
		klen := int(binary.LittleEndian.Uint16(body[p:]))
		vlen := int(binary.LittleEndian.Uint32(body[p+2:]))
		p += pairHeaderSize
		if p+klen+vlen > len(body) {
			return nil, fmt.Errorf("kvstore: truncated checkpoint pair")
		}
		pairs = append(pairs, Pair{
			Key:   bytes.Clone(body[p : p+klen]),
			Value: bytes.Clone(body[p+klen : p+klen+vlen]), // empty, not nil: nil is a tombstone
		})
		p += klen + vlen
	}
	return pairs, nil
}

// Checkpoint serializes the memtable into the replicated data region and
// truncates the log. It runs inline on the caller's fiber: mutate calls it
// on the Put or Delete whose Append meets txn.ErrLogFull (and after every
// CheckpointEvery mutations when that is set), so that op waits for the
// whole checkpoint. This store has no off-critical-path sync like §5.1's.
//
// The image is never built whole: it is streamed into the data region one
// txn chunk at a time, each chunk encoded from the memtable in place right
// before it is staged and posted. The write may yield between chunks (a
// full window waits for the oldest one), and the memtable must not change
// meanwhile; it cannot, because a DB has one writer and this is its call.
func (db *DB) Checkpoint(f *sim.Fiber) error {
	size := db.ckpt.start(db.mem)
	if size > db.cfg.DataSize {
		return fmt.Errorf("%w: checkpoint of %d bytes exceeds data region", ErrTooLarge, size)
	}
	if err := db.st.WriteFrom(f, 0, size, db.ckpt.chunk); err != nil {
		return err
	}
	if err := db.st.TruncateAll(f); err != nil {
		return err
	}
	db.mutations = 0
	db.stats.Checkpoints++
	return nil
}

// Recover rebuilds the memtable after a crash: load the last durable
// checkpoint, repair the log tail, and replay pending records.
func (db *DB) Recover(f *sim.Fiber) error {
	db.mem = newSkiplist(sim.NewRNG(db.cfg.Seed))
	img, err := db.st.ViewData(0, db.cfg.DataSize)
	if err != nil {
		return err
	}
	// img is a view of the mirror; decodeCheckpoint copies every key and
	// value out of it before RepairLog yields.
	if pairs, err := decodeCheckpoint(img); err == nil {
		for _, p := range pairs {
			db.mem.put(p.Key, p.Value)
		}
	}
	if _, _, err := db.st.RepairLog(f); err != nil {
		return err
	}
	err = db.st.VisitPending(func(_ uint64, entries []wal.Entry) error {
		for _, e := range entries {
			op, key, value, derr := decodeOp(e.Data)
			if derr != nil {
				return derr
			}
			if op == opPut {
				db.mem.put(key, bytes.Clone(value)) // empty, not nil: nil is a tombstone
			} else {
				db.mem.put(key, nil)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	db.stats.Recoveries++
	return nil
}
