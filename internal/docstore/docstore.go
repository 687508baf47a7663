// Package docstore is a MongoDB-like replicated document store (§5.2):
// JSON documents in collections, a journal (oplog) replicated with Append,
// transaction execution via ExecuteAndAdvance under the group write lock,
// and per-replica read locks so backups can serve consistent reads.
//
// The store runs over either replication backend (HyperLoop or
// Naive-RDMA) through the txn layer, mirroring the paper's front-end /
// back-end split: the front end (this package, on the client) marshals
// documents and drives the journal; the back ends are just NVM + NIC. The
// front end keeps its flat documents decoded, so the JSON slots are the
// replicated, recoverable image and not what reads and merges parse: a read
// returns the decoded entry itself, as a read-only view, and a write
// encodes a flat document with the store's own encoder, whose bytes are
// exactly json.Marshal's. Neither allocates in steady state.
package docstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"unicode/utf8"

	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
	"hyperloop/internal/wal"
)

// Slot framing in the data region. The payload CRC guards the two readers
// of slot bytes the client did not just write: Recover skips a slot a
// crash tore, and ReadReplica reports one as an error rather than
// returning a half-written document.
const (
	slotMagic      = 0x484C4443    // "HLDC"
	slotHeaderSize = 4 + 4 + 4 + 4 // magic, payload len, collection hash, payload crc
)

// Errors returned by the store.
var (
	ErrNotFound    = errors.New("docstore: document not found")
	ErrExists      = errors.New("docstore: document already exists")
	ErrTooLarge    = errors.New("docstore: document exceeds slot size")
	ErrNoSpace     = errors.New("docstore: data region full")
	ErrBadArgument = errors.New("docstore: bad argument")
)

// Doc is a JSON document. Every document carries a string "_id". A Doc
// the store returns is a read-only view (see FindID).
type Doc = map[string]any

// Config parameterizes a Store.
type Config struct {
	LogSize  int
	DataSize int
	// SlotSize is the fixed per-document slot in the data region.
	SlotSize int
	// LockToken identifies this writer in the group lock.
	LockToken uint64
}

// DefaultConfig sizes the store for the YCSB benchmarks.
func DefaultConfig() Config {
	return Config{
		LogSize:  256 * 1024,
		DataSize: 4 << 20,
		SlotSize: 2048,
	}
}

// MirrorSizeFor returns the group mirror size cfg requires.
func MirrorSizeFor(cfg Config) int { return txn.MirrorSizeFor(cfg.LogSize, cfg.DataSize) }

// Stats counts store activity.
type Stats struct {
	Inserts     int64
	Updates     int64
	Deletes     int64
	Finds       int64
	Scans       int64
	ReplicaGets int64
}

type slotRef struct {
	coll string
	id   string
}

// Store is the replicated document store.
type Store struct {
	r     txn.Replicator // slots are decoded in place, from its ViewLocal
	st    *txn.Store
	cfg   Config
	slots int

	// directory: collection → id → slot index; plus sorted ids per
	// collection for scans and a free-slot list.
	dir    map[string]map[string]int
	sorted map[string][]string
	used   []bool
	refs   []slotRef
	stats  Stats

	// docs[slot] is the slot's document, decoded, when it is flat (see
	// flat); nil means read the slot. spare is Update's merge target and
	// trades places with the entry it replaces.
	docs  []Doc
	spare Doc
	img   []byte               // the slot image being built: header, then payload
	keys  []string             // appendFlat's sorted keys
	zero  [slotHeaderSize]byte // Delete's slot image
	entry [1]wal.Entry         // commit's journal record
}

// Open builds a Store over a replication group.
func Open(r txn.Replicator, cfg Config) (*Store, error) {
	if cfg.SlotSize <= slotHeaderSize+2 {
		return nil, fmt.Errorf("%w: slot size too small", ErrBadArgument)
	}
	if cfg.DataSize < cfg.SlotSize {
		return nil, fmt.Errorf("%w: data region smaller than one slot", ErrBadArgument)
	}
	st, err := txn.New(r, txn.Config{
		LogSize: cfg.LogSize, DataSize: cfg.DataSize, LockToken: cfg.LockToken,
	})
	if err != nil {
		return nil, err
	}
	slots := cfg.DataSize / cfg.SlotSize
	s := &Store{
		r:      r,
		st:     st,
		cfg:    cfg,
		slots:  slots,
		dir:    make(map[string]map[string]int),
		sorted: make(map[string][]string),
		used:   make([]bool, slots),
		refs:   make([]slotRef, slots),
		docs:   make([]Doc, slots),
		spare:  make(Doc),
		img:    make([]byte, slotHeaderSize, cfg.SlotSize),
	}
	return s, nil
}

// Store exposes the underlying transaction store.
func (s *Store) Txn() *txn.Store { return s.st }

// Stats returns activity counters.
func (s *Store) Stats() Stats { return s.stats }

// Count returns the number of documents in a collection.
func (s *Store) Count(coll string) int { return len(s.dir[coll]) }

func collHash(coll string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(coll); i++ {
		h = (h ^ uint32(coll[i])) * 16777619
	}
	return h
}

func docID(doc Doc) (string, error) {
	v, ok := doc["_id"]
	if !ok {
		return "", fmt.Errorf("%w: document missing _id", ErrBadArgument)
	}
	id, ok := v.(string)
	if !ok || id == "" {
		return "", fmt.Errorf("%w: _id must be a non-empty string", ErrBadArgument)
	}
	return id, nil
}

func (s *Store) allocSlot() (int, error) {
	for i, u := range s.used {
		if !u {
			return i, nil
		}
	}
	return 0, ErrNoSpace
}

func (s *Store) slotOff(i int) int { return i * s.cfg.SlotSize }

// encodeDoc frames doc's JSON encoding (json.Marshal's bytes) for its
// slot, in the store's image buffer: valid until the next call. It reports
// whether doc is flat, which is when appendFlat encodes it.
func (s *Store) encodeDoc(coll string, doc Doc) (img []byte, isFlat bool, err error) {
	buf := s.img[:slotHeaderSize]
	if isFlat = flat(doc); isFlat {
		buf, err = s.appendFlat(buf, doc)
	} else {
		var js []byte
		if js, err = json.Marshal(doc); err == nil {
			buf = append(buf, js...)
		}
	}
	if err != nil {
		return nil, false, fmt.Errorf("docstore: marshal: %w", err)
	}
	s.img = buf
	payload := buf[slotHeaderSize:]
	if len(buf) > s.cfg.SlotSize {
		return nil, false, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	binary.LittleEndian.PutUint32(buf[0:], slotMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[8:], collHash(coll))
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(payload))
	return buf, isFlat, nil
}

// appendFlat appends json.Marshal's encoding of the flat document doc to
// buf without encoding/json: keys in string order, strings escaped as
// encoding/json escapes them (HTML escaping on), floats in its format, and
// NaN and ±Inf rejected with its error.
func (s *Store) appendFlat(buf []byte, doc Doc) ([]byte, error) {
	keys := s.keys[:0]
	for k := range doc {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	s.keys = keys
	buf = append(buf, '{')
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(appendString(buf, k), ':')
		switch v := doc[k].(type) {
		case nil:
			buf = append(buf, "null"...)
		case bool:
			buf = strconv.AppendBool(buf, v)
		case string:
			buf = appendString(buf, v)
		case float64:
			if math.IsNaN(v) || math.IsInf(v, 0) {
				_, err := json.Marshal(v) // its error
				return nil, err
			}
			format := byte('f')
			if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
				format = 'e'
			}
			buf = strconv.AppendFloat(buf, v, format, -1, 64)
			if n := len(buf); format == 'e' && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
				buf[n-2] = buf[n-1] // e-09 → e-9
				buf = buf[:n-1]
			}
		}
	}
	return append(buf, '}'), nil
}

// appendString appends the JSON string encoding/json writes for the valid
// UTF-8 string str: '"' and '\\' backslashed, control bytes as \b, \f,
// \n, \r, \t or \u00XX, '<', '>' and '&' as \u00XX, and U+2028 and
// U+2029 (UTF-8 E2 80 A8 and A9) as \u2028 and \u2029.
func appendString(buf []byte, str string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(str); i++ {
		b := str[i]
		if b >= utf8.RuneSelf {
			if b != 0xE2 || i+2 >= len(str) || str[i+1] != 0x80 || str[i+2]&^1 != 0xA8 {
				continue
			}
		} else if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			continue
		}
		buf = append(buf, str[start:i]...)
		switch b {
		case '"', '\\':
			buf = append(buf, '\\', b)
		case '\b':
			buf = append(buf, '\\', 'b')
		case '\f':
			buf = append(buf, '\\', 'f')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		case 0xE2:
			i += 2
			buf = append(buf, '\\', 'u', '2', '0', '2', hex[str[i]&0xF])
		default:
			buf = append(buf, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
		start = i + 1
	}
	buf = append(buf, str[start:]...)
	return append(buf, '"')
}

// decodeSlot parses one slot image; ok=false for a free slot or a slot
// whose payload fails its integrity check (torn write).
func decodeSlot(img []byte) (payload []byte, hash uint32, ok bool) {
	if len(img) < slotHeaderSize {
		return nil, 0, false
	}
	if binary.LittleEndian.Uint32(img[0:]) != slotMagic {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(img[4:]))
	if slotHeaderSize+n > len(img) {
		return nil, 0, false
	}
	payload = img[slotHeaderSize : slotHeaderSize+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(img[12:]) {
		return nil, 0, false
	}
	return payload, binary.LittleEndian.Uint32(img[8:]), true
}

// decodeDoc decodes the document in one slot image.
func decodeDoc(img []byte) (doc Doc, hash uint32, err error) {
	payload, hash, ok := decodeSlot(img)
	if !ok {
		return nil, 0, fmt.Errorf("%w: slot empty", ErrNotFound)
	}
	if err := json.Unmarshal(payload, &doc); err != nil {
		return nil, 0, fmt.Errorf("docstore: unmarshal: %w", err)
	}
	return doc, hash, nil
}

// flat reports whether doc can stand in for its slot in docs: every key
// and string is valid UTF-8 and every value a string, a float64 (finite:
// encoding rejects the others), a bool or nil. Such a map decodes from its
// own encoding unchanged, its values are immutable, and appendFlat encodes
// it.
func flat(doc Doc) bool {
	for k, v := range doc {
		str, _ := v.(string)
		switch v.(type) {
		case nil, bool, float64, string:
		default:
			return false
		}
		if !utf8.ValidString(k) || !utf8.ValidString(str) {
			return false
		}
	}
	return true
}

// commit writes img into the slot through the journal: it appends the
// record and executes it under the group write lock — the §5.2 transaction
// flow (wrLock … ExecuteAndAdvance … wrUnlock), the release riding behind
// the execute as one step.
func (s *Store) commit(f *sim.Fiber, slot int, img []byte) error {
	s.entry[0] = wal.Entry{Off: s.slotOff(slot), Data: img}
	if _, err := s.st.Append(f, s.entry[:]); err != nil {
		return err // Append is failure-atomic: there is no record to execute
	}
	err := s.st.WrLock(f)
	if err == nil {
		if _, err = s.st.ExecuteAllAndUnlock(f); err != nil {
			_ = s.st.WrUnlock(f) // best effort; the execute's error is the one reported
		}
	}
	if err != nil {
		// The record still executes at the next drain: reads go to the slot.
		s.docs[slot] = nil
	}
	return err
}

func (s *Store) indexInsert(coll, id string, slot int) {
	if s.dir[coll] == nil {
		s.dir[coll] = make(map[string]int)
	}
	s.dir[coll][id] = slot
	ids := s.sorted[coll]
	pos := sort.SearchStrings(ids, id)
	ids = append(ids, "")
	copy(ids[pos+1:], ids[pos:])
	ids[pos] = id
	s.sorted[coll] = ids
	s.used[slot] = true
	s.refs[slot] = slotRef{coll: coll, id: id}
}

func (s *Store) indexDelete(coll, id string) {
	slot, ok := s.dir[coll][id]
	if !ok {
		return
	}
	delete(s.dir[coll], id)
	ids := s.sorted[coll]
	pos := sort.SearchStrings(ids, id)
	if pos < len(ids) && ids[pos] == id {
		s.sorted[coll] = append(ids[:pos], ids[pos+1:]...)
	}
	s.used[slot] = false
	s.refs[slot] = slotRef{}
}

// Insert adds a new document to coll.
func (s *Store) Insert(f *sim.Fiber, coll string, doc Doc) error {
	id, err := docID(doc)
	if err != nil {
		return err
	}
	if _, exists := s.dir[coll][id]; exists {
		return fmt.Errorf("%w: %s/%s", ErrExists, coll, id)
	}
	// Stamp the collection into the stored form so recovery can rebuild
	// the directory from slots alone.
	stored := make(Doc, len(doc)+1)
	for k, v := range doc {
		stored[k] = v
	}
	stored["_coll"] = coll
	slot, err := s.allocSlot()
	if err != nil {
		return err
	}
	img, isFlat, err := s.encodeDoc(coll, stored)
	if err != nil {
		return err
	}
	if err := s.commit(f, slot, img); err != nil {
		return err
	}
	s.indexInsert(coll, id, slot)
	if isFlat {
		s.docs[slot] = stored
	}
	s.stats.Inserts++
	return nil
}

// Update merges fields into the document with the given id. It never
// changes "_id" or "_coll", the stamps the directory and Recover key on.
func (s *Store) Update(f *sim.Fiber, coll, id string, fields Doc) error {
	slot, ok := s.dir[coll][id]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, coll, id)
	}
	doc := s.docs[slot]
	spare := doc != nil
	if spare {
		clear(s.spare)
		maps.Copy(s.spare, doc)
		doc = s.spare
	} else {
		var err error
		if doc, err = s.loadSlotDoc(slot); err != nil {
			return err
		}
	}
	for k, v := range fields {
		if k == "_id" || k == "_coll" {
			continue
		}
		doc[k] = v
	}
	img, isFlat, err := s.encodeDoc(coll, doc)
	if err != nil {
		return err
	}
	if err := s.commit(f, slot, img); err != nil {
		return err
	}
	if !isFlat {
		doc = nil
	} else if spare {
		s.spare = s.docs[slot] // the replaced entry is the next merge target
	}
	s.docs[slot] = doc
	s.stats.Updates++
	return nil
}

// Delete removes a document: the journal entry zeroes the slot header.
func (s *Store) Delete(f *sim.Fiber, coll, id string) error {
	slot, ok := s.dir[coll][id]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, coll, id)
	}
	if err := s.commit(f, slot, s.zero[:]); err != nil {
		return err
	}
	s.indexDelete(coll, id)
	s.docs[slot] = nil
	s.stats.Deletes++
	return nil
}

func (s *Store) loadSlotDoc(slot int) (Doc, error) {
	img, err := s.r.ViewLocal(s.st.DataOff()+s.slotOff(slot), s.cfg.SlotSize)
	if err != nil {
		return nil, err
	}
	doc, _, err := decodeDoc(img)
	return doc, err
}

// FindID returns the document with the given id (strong read from the
// client's authoritative copy). The result is a view, read-only and valid
// until the caller yields or calls a mutating method, like
// txn.Store.ViewData's: a flat document is returned as its table entry. A
// caller that keeps the result clones it.
func (s *Store) FindID(coll, id string) (Doc, error) {
	slot, ok := s.dir[coll][id]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, coll, id)
	}
	s.stats.Finds++
	if doc := s.docs[slot]; doc != nil {
		return doc, nil
	}
	return s.loadSlotDoc(slot)
}

// Scan returns up to max documents with id >= start, in id order, as
// FindID's views.
func (s *Store) Scan(coll, start string, max int) ([]Doc, error) {
	ids := s.sorted[coll]
	pos := sort.SearchStrings(ids, start)
	var out []Doc
	for ; pos < len(ids) && len(out) < max; pos++ {
		doc, err := s.FindID(coll, ids[pos])
		if err != nil {
			return out, err
		}
		out = append(out, doc)
	}
	s.stats.Scans++
	return out, nil
}

// ReadReplica serves the document from replica i's copy under a read lock
// (§5: "read locks ... help all replicas simultaneously serve consistent
// reads"). replicaImg must be replica i's mirror image reader.
func (s *Store) ReadReplica(f *sim.Fiber, replica int, replicaImg func(off, n int) ([]byte, error), coll, id string) (Doc, error) {
	slot, ok := s.dir[coll][id]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, coll, id)
	}
	if err := s.st.RdLock(f, replica); err != nil {
		return nil, err
	}
	defer func() { _ = s.st.RdUnlock(f, replica) }()
	off := s.st.DataOff() + s.slotOff(slot)
	img, err := replicaImg(off, s.cfg.SlotSize)
	if err != nil {
		return nil, err
	}
	doc, _, err := decodeDoc(img)
	if err != nil {
		return nil, fmt.Errorf("replica %d: %w", replica, err)
	}
	s.stats.ReplicaGets++
	return doc, nil
}

// Recover rebuilds the store after a crash: repair the journal, re-execute
// pending records, then rebuild the directory by scanning slots.
func (s *Store) Recover(f *sim.Fiber) error {
	if _, err := s.st.Recover(f); err != nil {
		return err
	}
	s.dir = make(map[string]map[string]int)
	s.sorted = make(map[string][]string)
	s.used = make([]bool, s.slots)
	s.refs = make([]slotRef, s.slots)
	clear(s.docs)
	collNames := make(map[uint32]string)
	// Collection names are recovered from documents' own payloads: we
	// remember hash→name as we parse.
	for i := 0; i < s.slots; i++ {
		img, err := s.r.ViewLocal(s.st.DataOff()+s.slotOff(i), s.cfg.SlotSize)
		if err != nil {
			return err
		}
		doc, hash, err := decodeDoc(img)
		if err != nil {
			continue // free or torn slot; skip
		}
		id, err := docID(doc)
		if err != nil {
			continue
		}
		coll := collNames[hash]
		if coll == "" {
			if c, ok := doc["_coll"].(string); ok {
				coll = c
			} else {
				coll = fmt.Sprintf("coll-%08x", hash)
			}
			collNames[hash] = coll
		}
		s.indexInsert(coll, id, i)
		if flat(doc) {
			s.docs[i] = doc
		}
	}
	return nil
}
