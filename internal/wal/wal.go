// Package wal is the write-ahead log of the replicated transaction layer
// (§5, "Log Replication"), and the only owner of its layout. Each record
// is a redo log structured as a list of modifications, where each entry is
// a (data, len, offset) tuple meaning "copy data of length len to offset
// in the database". Records carry a CRC so recovery can reject torn
// writes.
//
// The records live in a circular log region, the ring. Its live records
// are [head, tail) in ring order. A record that does not fit before the
// ring's end goes at 0; the bytes it skips are a pad marker when they can
// hold one, and otherwise the wrap strip, which readers skip unmarked. One
// byte of the ring is always kept free, so a full ring never reads as an
// empty one. Writers ask Place where a record goes, readers walk the ring
// with Walk; no other package computes a wrap or reads a pad.
//
// The package is pure data structure. Replication of the bytes is the txn
// package's job.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record framing constants.
const (
	magicRecord = 0x484C5247 // "HLRG"
	magicPad    = 0x484C5044 // "HLPD": fills the tail of the region before wrap

	recHeaderSize  = 4 + 8 + 4 // magic, seq, nEntries
	entryHeader    = 8 + 4     // dstOff, len
	recTrailerSize = 4         // crc32
	padHeaderSize  = 4 + 4     // magic, padLen
)

// Errors surfaced to recovery code.
var (
	ErrCorrupt  = errors.New("wal: corrupt record")
	ErrTooSmall = errors.New("wal: buffer too small")
	ErrFull     = errors.New("wal: ring full")
)

// Entry is one modification: Data is copied to database offset Off.
type Entry struct {
	Off  int
	Data []byte
}

// Record is an atomic group of modifications.
type Record struct {
	Seq     uint64
	Entries []Entry
}

// EncodedSize returns the record's on-log footprint.
func (r *Record) EncodedSize() int {
	n := recHeaderSize + recTrailerSize
	for _, e := range r.Entries {
		n += entryHeader + len(e.Data)
	}
	return n
}

// Encode serializes the record into buf, returning the bytes written.
func (r *Record) Encode(buf []byte) (int, error) {
	need := r.EncodedSize()
	if len(buf) < need {
		return 0, fmt.Errorf("%w: need %d, have %d", ErrTooSmall, need, len(buf))
	}
	binary.LittleEndian.PutUint32(buf[0:], magicRecord)
	binary.LittleEndian.PutUint64(buf[4:], r.Seq)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(r.Entries)))
	p := recHeaderSize
	for _, e := range r.Entries {
		binary.LittleEndian.PutUint64(buf[p:], uint64(e.Off))
		binary.LittleEndian.PutUint32(buf[p+8:], uint32(len(e.Data)))
		copy(buf[p+entryHeader:], e.Data)
		p += entryHeader + len(e.Data)
	}
	crc := crc32.ChecksumIEEE(buf[:p])
	binary.LittleEndian.PutUint32(buf[p:], crc)
	return p + recTrailerSize, nil
}

// DecodedEntry is an entry plus the position of its data bytes relative to
// the start of the record — what gMEMCPY needs to copy the data out of the
// log region without the CPU touching it.
type DecodedEntry struct {
	Off     int // database offset to copy to
	Len     int
	DataPos int // offset of the data within the record's encoding
}

// DecodedRecord is the result of parsing one on-log record.
type DecodedRecord struct {
	Seq     uint64
	Entries []DecodedEntry
	Size    int // total encoded size including trailer
}

// Data returns entry e's bytes given the record's encoding.
func (d *DecodedRecord) Data(buf []byte, e DecodedEntry) []byte {
	return buf[e.DataPos : e.DataPos+e.Len]
}

// Decode parses a record at the start of buf, verifying framing and CRC.
// The entry list is built in entries[:0]: pass the last record's to reuse.
func Decode(buf []byte, entries []DecodedEntry) (DecodedRecord, error) {
	var d DecodedRecord
	if len(buf) < recHeaderSize+recTrailerSize {
		return d, ErrTooSmall
	}
	if binary.LittleEndian.Uint32(buf[0:]) != magicRecord {
		return d, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	d.Seq = binary.LittleEndian.Uint64(buf[4:])
	n := int(binary.LittleEndian.Uint32(buf[12:]))
	if n < 0 || n > 1<<20 {
		return d, fmt.Errorf("%w: implausible entry count %d", ErrCorrupt, n)
	}
	p := recHeaderSize
	d.Entries = entries[:0]
	for i := 0; i < n; i++ {
		if p+entryHeader > len(buf) {
			return d, fmt.Errorf("%w: truncated entry header", ErrCorrupt)
		}
		off := int(binary.LittleEndian.Uint64(buf[p:]))
		ln := int(binary.LittleEndian.Uint32(buf[p+8:]))
		if ln < 0 || p+entryHeader+ln > len(buf) {
			return d, fmt.Errorf("%w: truncated entry data", ErrCorrupt)
		}
		d.Entries = append(d.Entries, DecodedEntry{Off: off, Len: ln, DataPos: p + entryHeader})
		p += entryHeader + ln
	}
	if p+recTrailerSize > len(buf) {
		return d, fmt.Errorf("%w: truncated trailer", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(buf[p:])
	if crc32.ChecksumIEEE(buf[:p]) != want {
		return d, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	d.Size = p + recTrailerSize
	return d, nil
}

// extent returns how many bytes of a log image Decode needs to parse the
// record at its start. The image is limit bytes long and is reached only
// through fetch, which returns bytes [pos, pos+n) of it, so a caller whose
// image is expensive to copy (the rest of a log ring) pays for the record's
// header and entry headers, not for the image. When the framing does not
// lead to a record end inside the image, extent returns limit: Decode then
// sees the whole image and reports the damage as it always has. The only
// errors are fetch's.
func extent(limit int, fetch func(pos, n int) ([]byte, error)) (int, error) {
	if limit < recHeaderSize+recTrailerSize {
		return limit, nil
	}
	hdr, err := fetch(0, recHeaderSize)
	if err != nil {
		return 0, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[12:]))
	if binary.LittleEndian.Uint32(hdr[0:]) != magicRecord || n > 1<<20 {
		return limit, nil
	}
	p := recHeaderSize
	for i := 0; i < n; i++ {
		if p+entryHeader > limit {
			return limit, nil
		}
		eh, err := fetch(p, entryHeader)
		if err != nil {
			return 0, err
		}
		p += entryHeader + int(binary.LittleEndian.Uint32(eh[8:]))
	}
	if p+recTrailerSize > limit {
		return limit, nil
	}
	return p + recTrailerSize, nil
}

// Place returns where a record of n bytes goes in a ring of size bytes
// whose live records are [head, tail): at, and next, the tail after it.
// When the record does not fit before the ring's end it goes at 0, and pad
// is the length of the pad marker to write at tail first (EncodePad), or 0
// when the skipped bytes are the wrap strip. Place fails with ErrTooSmall
// when no such ring can ever hold the record, and with ErrFull when this
// one cannot hold it until its head moves.
func Place(size, head, tail, n int) (at, pad, next int, err error) {
	if n >= size-padHeaderSize {
		return 0, 0, 0, ErrTooSmall
	}
	at, need := tail, n
	if tail+n > size {
		at, need = 0, n+size-tail
		if size-tail >= padHeaderSize {
			pad = size - tail
		}
	}
	if next = wrapped(size, at+n); next == 0 {
		need += size - at - n // the wrap strip behind the record
	}
	if used := (tail - head + size) % size; need > size-used-1 {
		return 0, 0, 0, ErrFull
	}
	return at, pad, next, nil
}

// wrapped returns ring position p, or 0 when p is in the wrap strip.
func wrapped(size, p int) int {
	if size-p < padHeaderSize {
		return 0
	}
	return p
}

// EncodePad fills buf, the bytes Place said a pad takes, with a pad marker
// and returns how many leading bytes of it a reader looks at: the ones the
// log must hold. The rest of buf is zeroed.
func EncodePad(buf []byte) int {
	clear(buf)
	binary.LittleEndian.PutUint32(buf[0:], magicPad)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(buf)))
	return padHeaderSize
}

// Walk reads the records of a ring of size bytes from head to tail, in
// order, through fetch alone: fetch(pos, n) returns ring bytes
// [pos, pos+n). Walk asks it only for bytes inside the ring, and only for
// the headers and the records it reads, so a caller whose ring is
// expensive to copy pays for the records, not for the ring. visit gets
// each record's ring position, its decoding (entries built in entries[:0])
// and its bytes, which last until fetch is next called; returning false
// stops the walk behind that record. tail may equal size: the walk then
// runs to the ring's end, a whole lap when head is 0.
//
// Walk returns where it stopped: tail; or the position after the record
// visit stopped at (0 when that is the wrap strip); or the start of the
// damage, with an error wrapping ErrCorrupt. Damage is a head or tail
// outside the ring, a tail inside the wrap strip, a pad shorter than its
// marker or running past the ring's end, a record that Decode rejects, and
// a record or pad running past tail. What Walk visited before it is the
// valid prefix. An error from fetch is returned as it is.
func Walk(size, head, tail int, fetch func(pos, n int) ([]byte, error), entries []DecodedEntry,
	visit func(pos int, rec DecodedRecord, img []byte) bool) (int, error) {
	if head < 0 || head >= size || tail < 0 || tail > size {
		return head, fmt.Errorf("%w: head %d, tail %d outside a %d-byte ring", ErrCorrupt, head, tail, size)
	}
	left := tail - head // the bytes from p to tail
	if left < 0 {
		left += size
	}
	for p := head; left > 0; {
		if strip := size - p; strip < padHeaderSize {
			if strip > left {
				return p, fmt.Errorf("%w: tail %d inside the wrap strip", ErrCorrupt, tail)
			}
			p, left = 0, left-strip
			continue
		}
		hdr, err := fetch(p, padHeaderSize)
		if err != nil {
			return p, err
		}
		if binary.LittleEndian.Uint32(hdr) == magicPad {
			n := int(binary.LittleEndian.Uint32(hdr[4:]))
			if n < padHeaderSize || n > size-p || n > left {
				return p, fmt.Errorf("%w: pad of %d bytes at %d", ErrCorrupt, n, p)
			}
			p, left = p+n, left-n
			continue
		}
		n, err := extent(min(size-p, left), func(pos, n int) ([]byte, error) { return fetch(p+pos, n) })
		if err != nil {
			return p, err
		}
		img, err := fetch(p, n)
		if err != nil {
			return p, err
		}
		rec, err := Decode(img, entries)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				err = fmt.Errorf("%w: %d-byte record at %d: %v", ErrCorrupt, n, p, err)
			}
			return p, err
		}
		if !visit(p, rec, img) {
			return wrapped(size, p+rec.Size), nil
		}
		p, left = p+rec.Size, left-rec.Size
	}
	return tail, nil
}

// Scan returns the valid records of the ring img from head to tail, in
// order, with their positions (Walk). Scanning stops at the first damage,
// which is how recovery rejects torn tails: the records before it are
// returned with Walk's error.
func Scan(img []byte, head, tail int) ([]DecodedRecord, []int, error) {
	var recs []DecodedRecord
	var positions []int
	fetch := func(pos, n int) ([]byte, error) { return img[pos : pos+n], nil }
	_, err := Walk(len(img), head, tail, fetch, nil, func(pos int, rec DecodedRecord, _ []byte) bool {
		recs = append(recs, rec)
		positions = append(positions, pos)
		return true
	})
	return recs, positions, err
}
