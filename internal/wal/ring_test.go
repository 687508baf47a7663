package wal

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

// within runs fn on a goroutine and fails the test when it has not
// returned after a few seconds, so a walk that spins fails the test
// instead of hanging the package.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// sizedRecord returns a one-entry record whose encoding is n bytes.
func sizedRecord(seq uint64, n int) Record {
	data := make([]byte, n-recHeaderSize-entryHeader-recTrailerSize)
	for i := range data {
		data[i] = byte(seq)
	}
	return Record{Seq: seq, Entries: []Entry{{Off: int(seq), Data: data}}}
}

func encodeAt(t *testing.T, ring []byte, at int, r Record) {
	t.Helper()
	if _, err := r.Encode(ring[at:]); err != nil {
		t.Fatal(err)
	}
}

// TestScanCrossesWrapStrip is a ring as the transaction layer writes it: a
// 96-byte record at 100–196 of a 200-byte ring leaves a 4-byte wrap strip,
// too short for a pad marker, and the next record goes at 0.
func TestScanCrossesWrapStrip(t *testing.T) {
	ring := make([]byte, 200)
	encodeAt(t, ring, 100, sizedRecord(1, 96))
	encodeAt(t, ring, 0, sizedRecord(2, 40))
	var (
		recs []DecodedRecord
		pos  []int
		err  error
	)
	within(t, "Scan", func() { recs, pos, err = Scan(ring, 100, 40) })
	if err != nil || len(recs) != 2 || recs[0].Seq != 1 || recs[1].Seq != 2 || pos[0] != 100 || pos[1] != 0 {
		t.Fatalf("Scan = %d records at %v, %v; want seqs 1, 2 at 100, 0", len(recs), pos, err)
	}
	// A walk stopped behind the first record ends past the strip, at 0:
	// where the head goes once that record is executed.
	end, err := Walk(len(ring), 100, 40, ringFetch(ring), nil, func(int, DecodedRecord, []byte) bool { return false })
	if err != nil || end != 0 {
		t.Fatalf("walk stopped behind the first record ended at %d, %v; want 0", end, err)
	}
}

// TestScanStopsAtMalformedPad: a pad marker whose length is zero, or runs
// past the ring's end, ends the valid prefix instead of spinning.
func TestScanStopsAtMalformedPad(t *testing.T) {
	for _, padLen := range []uint32{0, 200} {
		ring := make([]byte, 256)
		encodeAt(t, ring, 0, sizedRecord(1, 64))
		binary.LittleEndian.PutUint32(ring[64:], magicPad)
		binary.LittleEndian.PutUint32(ring[68:], padLen)
		var (
			recs []DecodedRecord
			err  error
		)
		within(t, "Scan", func() { recs, _, err = Scan(ring, 0, 128) })
		if !errors.Is(err, ErrCorrupt) || len(recs) != 1 || recs[0].Seq != 1 {
			t.Errorf("pad of %d bytes: Scan = %d records, %v; want record 1, then ErrCorrupt", padLen, len(recs), err)
		}
	}
}

// TestPlaceKeepsAByteFree: a record whose end leaves only the wrap strip
// wraps the tail to 0, so the strip counts against the free space; on a
// ring whose head is 0 the tail would otherwise meet the head, and the
// full ring would read as empty.
func TestPlaceKeepsAByteFree(t *testing.T) {
	if _, _, _, err := Place(216, 0, 132, 77); !errors.Is(err, ErrFull) {
		t.Fatalf("a record ending in the strip of a ring whose head is 0: %v, want ErrFull", err)
	}
	if at, pad, next, err := Place(216, 8, 132, 77); err != nil || at != 132 || pad != 0 || next != 0 {
		t.Fatalf("the same record with the head at 8 = %d, %d, %d, %v; want 132, 0, 0", at, pad, next, err)
	}
}

// TestWalkReportsDamage: each kind of damage ends the walk where the valid
// prefix ends, with ErrCorrupt, and a failing fetch ends it with its own
// error.
func TestWalkReportsDamage(t *testing.T) {
	ring := make([]byte, 200) // two records filling all but the wrap strip
	encodeAt(t, ring, 0, sizedRecord(1, 96))
	encodeAt(t, ring, 96, sizedRecord(2, 100))
	cases := []struct {
		name             string
		head, tail, want int
	}{
		{"head outside the ring", 200, 96, 200},
		{"tail outside the ring", 0, 201, 0},
		{"tail inside the wrap strip", 0, 198, 196},
		{"record running past the tail", 0, 150, 96},
		{"record cut short by the tail", 0, 110, 96},
	}
	for _, c := range cases {
		end, err := Walk(len(ring), c.head, c.tail, ringFetch(ring), nil, func(int, DecodedRecord, []byte) bool { return true })
		if !errors.Is(err, ErrCorrupt) || end != c.want {
			t.Errorf("%s: walk ended at %d, %v; want %d, ErrCorrupt", c.name, end, err, c.want)
		}
	}
	if _, _, _, err := Place(len(ring), 0, 0, len(ring)-padHeaderSize); !errors.Is(err, ErrTooSmall) {
		t.Errorf("a record the ring can never hold: %v, want ErrTooSmall", err)
	}
	boom := errors.New("boom")
	for failAt := 1; failAt <= 4; failAt++ {
		calls := 0
		fetch := func(pos, n int) ([]byte, error) {
			if calls++; calls == failAt {
				return nil, boom
			}
			return ring[pos : pos+n], nil
		}
		if end, err := Walk(len(ring), 0, 196, fetch, nil, func(int, DecodedRecord, []byte) bool { return true }); !errors.Is(err, boom) || end != 0 {
			t.Errorf("fetch %d failing: walk ended at %d, %v", failAt, end, err)
		}
	}
}
