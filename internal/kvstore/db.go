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
	ErrTorn        = errors.New("kvstore: checkpoint torn")
)

// Config parameterizes a DB.
type Config struct {
	// LogSize / DataSize size the txn store regions; the group's mirror
	// must be at least txn.MirrorSizeFor(LogSize, DataSize).
	LogSize  int
	DataSize int
	// Seed makes the memtable deterministic.
	Seed uint64
}

// DefaultConfig sizes the store for the YCSB benchmarks.
func DefaultConfig() Config {
	return Config{
		LogSize:  256 * 1024,
		DataSize: 1 << 20,
		Seed:     1,
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

	opBuf   []byte // the op record; Append copies it into the log
	recSize int    // the latest op record's log footprint

	ckpt    ckptStream             // the running checkpoint's image, encoded as it is written
	flying  [maxFlying]*sim.Signal // the stream's posts not yet reaped, oldest first
	nflying int
	inline  int // checkpoints written inline (Checkpoint)
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
	db.recSize = (&wal.Record{Entries: rec[:]}).EncodedSize()
	next := db.plan(f)
	sig, err := db.appendOp(f, rec[:], next)
	// A full log finishes the running stream inline. That frees the log up
	// to the stream's snapshot; when that is not room enough, a checkpoint
	// of the state now frees all of it.
	for try := 0; try < 2 && errors.Is(err, txn.ErrLogFull); try++ {
		if cerr := db.Checkpoint(f); cerr != nil {
			return cerr
		}
		next = postNothing // the stream it was planned for is written
		sig, err = db.appendOp(f, rec[:], next)
	}
	db.track(next, sig)
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
	if db.ckpt.size == 0 && db.due() {
		_ = db.begin() // an image too large for the data region fails the inline checkpoint
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

// ckptStream encodes a snapshot of the memtable as a checkpoint image
// without ever holding the image: start takes the snapshot and walks it
// once for the header's pair count, body length and body CRC; chunk then
// walks it again, copying the header and each pair's pieces — lengths,
// key, value — into one chunk buffer that is staged and posted before the
// next is asked for, and releases the snapshot with the image's last byte.
// Between chunks the memtable may change: the snapshot keeps what the
// image still has to say (skiplist.snapshot).
//
// The running checkpoint is one stream, whoever writes it: each Put posts
// a piece behind its own Append (DB.plan) and Checkpoint writes the
// rest inline. size is 0 when none runs.
type ckptStream struct {
	mem   *skiplist
	buf   []byte // the chunk being built
	hdr   [ckptHeaderSize]byte
	lens  [pairHeaderSize]byte // node's klen and vlen
	node  *skipNode            // the pair being emitted
	value []byte               // its value in the snapshot
	part  int                  // node's next piece: 0 lengths, 1 key, 2 value
	piece []byte               // what is left of the piece being emitted

	size       int  // image bytes
	pos        int  // image bytes posted
	left       int  // image bytes not yet encoded
	tail       int  // the log tail the snapshot covers: the head once the image is whole
	truncating bool // the move of the head to tail is posted
}

// setLens encodes a pair's key and value lengths into c.lens.
func (c *ckptStream) setLens(key, value []byte) {
	binary.LittleEndian.PutUint16(c.lens[0:], uint16(len(key)))
	binary.LittleEndian.PutUint32(c.lens[2:], uint32(len(value)))
}

// start snapshots mem and readies c to stream the snapshot's image, whose
// size it returns. Checkpoints drop tombstones, since they capture full
// state.
func (c *ckptStream) start(mem *skiplist) int {
	mem.snapshot()
	count, bodyLen, crc := 0, 0, uint32(0)
	for n, v := mem.snapNext(mem.head); n != nil; n, v = mem.snapNext(n) {
		c.setLens(n.key, v)
		crc = crc32.Update(crc, crc32.IEEETable, c.lens[:])
		crc = crc32.Update(crc, crc32.IEEETable, n.key)
		crc = crc32.Update(crc, crc32.IEEETable, v)
		bodyLen += pairHeaderSize + len(n.key) + len(v)
		count++
	}
	binary.LittleEndian.PutUint32(c.hdr[0:], ckptMagic)
	binary.LittleEndian.PutUint32(c.hdr[4:], uint32(count))
	binary.LittleEndian.PutUint32(c.hdr[8:], uint32(bodyLen))
	binary.LittleEndian.PutUint32(c.hdr[12:], crc)
	c.mem, c.node, c.part, c.piece = mem, mem.head, 0, c.hdr[:]
	c.size, c.pos, c.left, c.truncating = ckptHeaderSize+bodyLen, 0, ckptHeaderSize+bodyLen, false
	return c.size
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
	if c.left -= n; c.left == 0 {
		c.mem.release()
	}
	return c.buf[:n]
}

// nextPiece moves c on to the next piece of the body.
func (c *ckptStream) nextPiece() {
	switch c.part {
	case 0:
		c.node.old = nil // emitted: the snapshot no longer needs it
		c.node, c.value = c.mem.snapNext(c.node)
		c.setLens(c.node.key, c.value)
		c.piece = c.lens[:]
	case 1:
		c.piece = c.node.key
	case 2:
		c.piece = c.value
	}
	c.part = (c.part + 1) % 3
}

// errNoCheckpoint is decodeCheckpoint's error for a data region that holds
// no checkpoint; any other error means a torn one.
var errNoCheckpoint = errors.New("kvstore: no checkpoint")

// decodeCheckpoint parses a checkpoint image into key-value pairs.
func decodeCheckpoint(img []byte) ([]Pair, error) {
	if len(img) < ckptHeaderSize || binary.LittleEndian.Uint32(img[0:]) != ckptMagic {
		return nil, errNoCheckpoint
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

// pieceSize is the most of the image a Put posts behind itself. The next
// Put's Append queues behind the piece on every hop, so the piece must
// cost it little. On a 3-replica chain the Append of a 1 KiB record (12.95
// µs alone) right after a piece costs 0.03 µs more after 16 KiB, 3.7 µs
// after 32 KiB and 18.5 µs after 64 KiB (TestPieceCost).
const pieceSize = 16 << 10

// maxFlying is how many of the stream's posts may be in flight at once. A
// piece has usually not fired when the Put it rode behind returns, but
// has by the end of the next one, so with two in flight every Put posts
// one; a Put that finds two posts unfired posts nothing rather than wait.
const maxFlying = 2

// What a Put posts behind its Append for the checkpoint stream.
const (
	postNothing = iota
	postPiece
	postTruncate
)

// plan reaps the stream's posts that have fired and says what the next
// Put posts behind its Append: the image's next piece or — once every
// piece is acknowledged — the move of the log head to the snapshot's tail.
// With maxFlying posts in flight it posts nothing, so a Put never waits
// for the stream.
func (db *DB) plan(f *sim.Fiber) int {
	c := &db.ckpt
	for db.nflying > 0 && db.flying[0].Fired() {
		err := f.Await(db.flying[0]) // fired: no wait
		db.nflying--
		copy(db.flying[:], db.flying[1:])
		db.flying[db.nflying] = nil
		if err != nil {
			db.abandon()
		}
	}
	switch {
	case c.size == 0 || db.nflying == maxFlying:
		return postNothing
	case c.truncating:
		if db.nflying == 0 {
			db.done()
		}
		return postNothing
	case c.pos < c.size:
		return postPiece
	case db.nflying == 0:
		return postTruncate
	}
	return postNothing
}

// appendOp appends the op record with next posted behind it.
func (db *DB) appendOp(f *sim.Fiber, rec []wal.Entry, next int) (*sim.Signal, error) {
	var sig *sim.Signal
	var err error
	switch c := &db.ckpt; next {
	case postPiece:
		_, sig, err = db.st.AppendData(f, rec, c.pos, min(pieceSize, c.size-c.pos), c.chunk)
	case postTruncate:
		_, sig, err = db.st.AppendTruncate(f, rec, c.tail)
	default:
		_, err = db.st.Append(f, rec)
	}
	return sig, err
}

// track notes a post of the stream that went out behind a Put. A post
// that did not go out abandons the stream: the image is then torn until
// the next checkpoint rewrites it, and the group's failure reaches the
// caller through the Put's own Append or the next one's.
func (db *DB) track(next int, sig *sim.Signal) {
	c := &db.ckpt
	switch {
	case next == postNothing:
		return
	case sig == nil:
		db.abandon()
		return
	case next == postPiece:
		c.pos += min(pieceSize, c.size-c.pos)
	default:
		c.truncating = true
	}
	db.flying[db.nflying] = sig
	db.nflying++
}

// due reports whether the log's free space has fallen to the headroom a
// stream needs, each Put taking the latest record's room in the log: a
// Put per piece of the image; maxFlying more, since the truncation waits
// for the last piece's acknowledgement, which a Put reaps only once it has
// fired; one for a wrap pad; one since due is asked once per Put, so a
// stream may start with up to a record less than the headroom; and an
// eighth more for the Puts that find maxFlying posts in flight and post
// nothing.
func (db *DB) due() bool {
	used, err := db.st.LogUsed()
	if err != nil {
		return false
	}
	puts := (ckptHeaderSize+db.mem.body+pieceSize-1)/pieceSize + maxFlying + 2
	return db.cfg.LogSize-used <= (puts+puts/8)*db.recSize
}

// begin starts a stream: it snapshots the memtable and notes the log tail
// the snapshot covers.
func (db *DB) begin() error {
	if size := ckptHeaderSize + db.mem.body; size > db.cfg.DataSize {
		return fmt.Errorf("%w: checkpoint of %d bytes exceeds data region", ErrTooLarge, size)
	}
	tail, err := db.st.Tail()
	if err != nil {
		return err
	}
	db.ckpt.start(db.mem)
	db.ckpt.tail = tail
	return nil
}

// done ends the stream with the log head at the snapshot's tail.
func (db *DB) done() {
	db.ckpt.size = 0
	db.stats.Checkpoints++
}

// abandon gives the running stream up.
func (db *DB) abandon() {
	if db.ckpt.size > 0 && db.ckpt.left > 0 {
		db.mem.release()
	}
	db.ckpt.size = 0
}

// Checkpoint writes the memtable into the replicated data region and
// truncates the log, inline on the caller's fiber: it finishes the running
// stream, or one it starts now, through txn.Store.WriteFrom, waits for the
// stream's posts still in flight, and moves the log head to the snapshot's
// tail. mutate calls it on the Put or Delete whose Append meets
// txn.ErrLogFull, which a stream that keeps up never lets happen, and a
// caller may call it at any point. Either way there is one stream and one
// encoder.
//
// The write may yield between chunks (a full window waits for the oldest
// one); the snapshot holds the image still meanwhile, and a DB has one
// writer, so nothing else posts a piece.
func (db *DB) Checkpoint(f *sim.Fiber) error {
	c := &db.ckpt
	if c.size == 0 {
		if err := db.begin(); err != nil {
			return err
		}
	}
	db.inline++
	var err error
	if c.pos < c.size {
		err = db.st.WriteFrom(f, c.pos, c.size-c.pos, c.chunk)
		c.pos = c.size
	}
	if ferr := db.land(f); err == nil {
		err = ferr
	}
	if err == nil && !c.truncating {
		err = db.st.TruncateTo(f, c.tail)
	}
	if err != nil {
		db.abandon()
		return err
	}
	db.done()
	return nil
}

// land waits for every post of the stream still in flight and returns the
// first error.
func (db *DB) land(f *sim.Fiber) error {
	var first error
	for i := range db.nflying {
		if err := f.Await(db.flying[i]); err != nil && first == nil {
			first = err
		}
		db.flying[i] = nil
	}
	db.nflying = 0
	return first
}

// Recover rebuilds the memtable after a crash: load the last durable
// checkpoint, repair the log tail, and replay pending records. A data
// region with no checkpoint magic holds no checkpoint. One whose length or
// CRC is wrong was torn by a crash while it was being rewritten; the log
// then no longer holds what the image lost, so Recover fails — unless the
// log still reaches back to the store's first record, as during the first
// checkpoint a store writes.
func (db *DB) Recover(f *sim.Fiber) error {
	_ = db.land(f) // posted before the crash; their image is read below
	db.abandon()
	db.mem = newSkiplist(sim.NewRNG(db.cfg.Seed))
	img, err := db.st.ViewData(0, db.cfg.DataSize)
	if err != nil {
		return err
	}
	// img is a view of the mirror; decodeCheckpoint copies every key and
	// value out of it before RepairLog yields.
	pairs, torn := decodeCheckpoint(img)
	if errors.Is(torn, errNoCheckpoint) {
		torn = nil
	}
	for _, p := range pairs {
		db.mem.put(p.Key, p.Value)
	}
	if _, _, err := db.st.RepairLog(f); err != nil {
		return err
	}
	if torn != nil {
		if whole, err := db.logFromStart(); err != nil || !whole {
			return fmt.Errorf("%w: %v, and the log no longer holds what it lost", ErrTorn, torn)
		}
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

// logFromStart reports whether the pending log starts with the store's
// first record: sequence 1 at the start of the ring, where it stays until
// the first truncation moves the head.
func (db *DB) logFromStart() (bool, error) {
	head, err := db.st.Head()
	if err != nil || head != 0 {
		return false, err
	}
	seqs, err := db.st.PendingSeqs()
	return len(seqs) > 0 && seqs[0] == 1, err
}
