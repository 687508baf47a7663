// Package wal defines the write-ahead-log record format used by the
// replicated transaction layer (§5, "Log Replication"): each record is a
// redo log structured as a list of modifications, where each entry is a
// (data, len, offset) tuple meaning "copy data of length len to offset in
// the database". Records carry a CRC so recovery can reject torn writes.
//
// The package is pure data structure: encoding, decoding, and scanning a
// circular log region. Replication of the bytes is the txn package's job.
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

// Extent returns how many bytes of a log image Decode needs to parse the
// record at its start. The image is limit bytes long and is reached only
// through fetch, which returns bytes [pos, pos+n) of it, so a caller whose
// image is expensive to copy (the rest of a log ring) pays for the record's
// header and entry headers, not for the image. When the framing does not
// lead to a record end inside the image, Extent returns limit: Decode then
// sees the whole image and reports the damage as it always has. The only
// errors are fetch's.
func Extent(limit int, fetch func(pos, n int) ([]byte, error)) (int, error) {
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

// EncodePad writes a pad marker filling length bytes (the unusable tail of
// the region before a wrap). length must be at least padHeaderSize.
func EncodePad(buf []byte, length int) error {
	if length < padHeaderSize || len(buf) < length {
		return ErrTooSmall
	}
	binary.LittleEndian.PutUint32(buf[0:], magicPad)
	binary.LittleEndian.PutUint32(buf[4:], uint32(length))
	return nil
}

// PadHeaderSize is the minimum size of a pad marker.
const PadHeaderSize = padHeaderSize

// IsPad reports whether a pad marker starts at buf, and its length.
func IsPad(buf []byte) (int, bool) {
	if len(buf) < padHeaderSize {
		return 0, false
	}
	if binary.LittleEndian.Uint32(buf[0:]) != magicPad {
		return 0, false
	}
	return int(binary.LittleEndian.Uint32(buf[4:])), true
}

// Scan walks the log image from head to tail (both byte offsets within
// img, head possibly behind tail after wrap is NOT supported here — the
// caller passes logical positions via the ring view) and returns all valid
// records in order. Scanning stops at the first corrupt record, which is
// how recovery rejects torn tails.
func Scan(img []byte, head, tail int) ([]DecodedRecord, []int, error) {
	var recs []DecodedRecord
	var positions []int
	p := head
	for p != tail {
		if p > len(img) || p < 0 {
			return recs, positions, fmt.Errorf("%w: scan out of bounds", ErrCorrupt)
		}
		if padLen, ok := IsPad(img[p:]); ok {
			p += padLen
			if p >= len(img) {
				p = 0
			}
			continue
		}
		d, err := Decode(img[p:], nil)
		if err != nil {
			return recs, positions, err
		}
		recs = append(recs, d)
		positions = append(positions, p)
		p += d.Size
	}
	return recs, positions, nil
}
