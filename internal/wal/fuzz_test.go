package wal

import (
	"errors"
	"testing"
)

// FuzzLogWalk checks the ring layout from both ends.
//
// Any ring: Walk over arbitrary bytes, head and tail never fetches outside
// the ring, stops within one lap, and yields only records whose CRC checks
// out.
//
// A round trip: a script of placements (each record encoded where Place
// put it, its pad marker's header written, the rest of the pad left as the
// stale bytes the ring held) and head advances reads back exactly the live
// records, in order, after every step.
func FuzzLogWalk(f *testing.F) {
	strip := make([]byte, 200) // the wrap-strip ring of TestScanCrossesWrapStrip
	if _, err := (&Record{Seq: 1, Entries: []Entry{{Data: make([]byte, 64)}}}).Encode(strip[100:]); err != nil {
		f.Fatal(err)
	}
	if _, err := (&Record{Seq: 2}).Encode(strip); err != nil {
		f.Fatal(err)
	}
	f.Add(strip, uint16(100), uint16(20), []byte{0, 9, 200, 7, 1, 255, 3, 1, 254})
	f.Add(make([]byte, 64), uint16(0), uint16(64), []byte{})
	f.Add([]byte("HLPD\x00\x00\x00\x00 a zero-length pad"), uint16(0), uint16(12), []byte{40, 40, 40, 1, 40, 1, 1})

	f.Fuzz(func(t *testing.T, ring []byte, head, tail uint16, script []byte) {
		if len(ring) == 0 || len(ring) > 1<<12 || len(script) > 1<<9 {
			return
		}
		walkAnyRing(t, ring, int(head)%len(ring), int(tail)%(len(ring)+1))
		roundTrip(t, ring, script)
	})
}

// walkAnyRing walks ring from head to tail, checking every fetch and record.
func walkAnyRing(t *testing.T, ring []byte, head, tail int) {
	size := len(ring)
	calls := 0
	fetch := func(pos, n int) ([]byte, error) {
		if pos < 0 || n < 0 || pos+n > size {
			t.Fatalf("fetch [%d, %d) outside a %d-byte ring", pos, pos+n, size)
		}
		// A pad or record step costs at most 3 fetches plus one per entry
		// header and advances past 8 bytes or more, so a walk of one lap
		// fetches fewer than size+4 times.
		if calls++; calls > size+4 {
			t.Fatalf("walk from %d to %d of a %d-byte ring still fetching after %d calls", head, tail, size, calls)
		}
		return ring[pos : pos+n], nil
	}
	walked := 0
	end, err := Walk(size, head, tail, fetch, nil, func(pos int, rec DecodedRecord, img []byte) bool {
		if pos+rec.Size > size || len(img) != rec.Size {
			t.Fatalf("record of %d bytes at %d, image of %d", rec.Size, pos, len(img))
		}
		if _, err := Decode(ring[pos:pos+rec.Size], nil); err != nil {
			t.Fatalf("walk yielded a record Decode rejects at %d: %v", pos, err)
		}
		if walked += rec.Size; walked > size {
			t.Fatalf("walk yielded %d record bytes from a %d-byte ring", walked, size)
		}
		return true
	})
	switch {
	case err != nil && !errors.Is(err, ErrCorrupt):
		t.Fatalf("walk error %v does not wrap ErrCorrupt", err)
	case err == nil && end != tail:
		t.Fatalf("walk ended at %d, tail %d", end, tail)
	case err != nil && (end < 0 || end >= size):
		t.Fatalf("damage at %d, outside a %d-byte ring", end, size)
	}
}

// live is a record the round trip placed and has not advanced the head past.
type live struct {
	pos  int
	seq  uint64
	size int
}

// roundTrip plays script over a ring whose stale bytes are garbage's. Its
// first byte sizes the ring; then each byte either places a record (even)
// or advances the head (odd): past the oldest live record, or to the tail
// when its second bit is set too (a truncation).
func roundTrip(t *testing.T, garbage, script []byte) {
	if len(script) == 0 {
		return
	}
	size := 48 + int(script[0])*4
	ring := make([]byte, size)
	for i := range ring {
		ring[i] = garbage[i%len(garbage)]
	}
	head, tail := 0, 0
	var pending []live
	seq := uint64(0)
	for step, b := range script[1:] {
		switch {
		case b&1 == 0:
			data := make([]byte, int(b>>1)%(size/2))
			seq++
			rec := Record{Seq: seq, Entries: []Entry{{Off: step, Data: data}}}
			n := rec.EncodedSize()
			at, pad, next, err := Place(size, head, tail, n)
			if errors.Is(err, ErrFull) || errors.Is(err, ErrTooSmall) {
				seq--
				continue
			}
			if err != nil || at < 0 || at+n > size || next < 0 || next >= size {
				t.Fatalf("Place(%d, %d, %d, %d) = %d, %d, %d, %v", size, head, tail, n, at, pad, next, err)
			}
			if pad > 0 {
				marker := make([]byte, pad)
				copy(ring[tail:], marker[:EncodePad(marker)])
			}
			if _, err := rec.Encode(ring[at:]); err != nil {
				t.Fatal(err)
			}
			pending = append(pending, live{pos: at, seq: seq, size: n})
			tail = next
		case b&2 != 0:
			head, pending = tail, nil
		case len(pending) > 0:
			head = pending[0].pos + pending[0].size
			if size-head < padHeaderSize {
				head = 0
			}
			pending = pending[1:]
		}
		i := 0
		end, err := Walk(size, head, tail, ringFetch(ring), nil, func(pos int, rec DecodedRecord, _ []byte) bool {
			if i >= len(pending) || pos != pending[i].pos || rec.Seq != pending[i].seq {
				t.Fatalf("step %d: record %d is seq %d at %d, want %+v", step, i, rec.Seq, pos, pending)
			}
			i++
			return true
		})
		if err != nil || end != tail || i != len(pending) {
			t.Fatalf("step %d: walk read %d of %d records, ended at %d (tail %d): %v", step, i, len(pending), end, tail, err)
		}
	}
}
