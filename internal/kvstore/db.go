package kvstore

import (
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
)

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
	opBuf     []byte // the op record; Append copies it into the log
	ckptBuf   []byte // the checkpoint image; WriteData copies it out
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
// value itself, not a copy: the caller must not modify it afterwards.
func (db *DB) Put(f *sim.Fiber, key, value []byte) error {
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

// encodeCheckpoint serializes the live state into the DB's image buffer,
// walking the memtable in key order: the pairs are appended behind space
// reserved for the header, which is filled in last, so the image is built
// once.
func (db *DB) encodeCheckpoint() []byte {
	out := append(db.ckptBuf[:0], make([]byte, ckptHeaderSize)...)
	count := 0
	for n := db.mem.head.next[0]; n != nil; n = n.next[0] {
		if n.value == nil {
			continue // checkpoints drop tombstones: they capture full state
		}
		var hdr [6]byte
		binary.LittleEndian.PutUint16(hdr[0:], uint16(len(n.key)))
		binary.LittleEndian.PutUint32(hdr[2:], uint32(len(n.value)))
		out = append(out, hdr[:]...)
		out = append(out, n.key...)
		out = append(out, n.value...)
		count++
	}
	db.ckptBuf = out
	body := out[ckptHeaderSize:]
	binary.LittleEndian.PutUint32(out[0:], ckptMagic)
	binary.LittleEndian.PutUint32(out[4:], uint32(count))
	binary.LittleEndian.PutUint32(out[8:], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[12:], crc32.ChecksumIEEE(body))
	return out
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
		if p+6 > len(body) {
			return nil, fmt.Errorf("kvstore: truncated checkpoint entry")
		}
		klen := int(binary.LittleEndian.Uint16(body[p:]))
		vlen := int(binary.LittleEndian.Uint32(body[p+2:]))
		p += 6
		if p+klen+vlen > len(body) {
			return nil, fmt.Errorf("kvstore: truncated checkpoint pair")
		}
		pairs = append(pairs, Pair{
			Key:   append([]byte(nil), body[p:p+klen]...),
			Value: append([]byte(nil), body[p+klen:p+klen+vlen]...),
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
func (db *DB) Checkpoint(f *sim.Fiber) error {
	img := db.encodeCheckpoint()
	if len(img) > db.cfg.DataSize {
		return fmt.Errorf("%w: checkpoint of %d bytes exceeds data region", ErrTooLarge, len(img))
	}
	if err := db.st.WriteData(f, 0, img); err != nil {
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
				db.mem.put(key, append([]byte(nil), value...))
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
