package txn

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// benchLog is the document store's log size; a 1 KiB record is 0.4 % of it.
const benchLog = 256 << 10

func kibEntry() []wal.Entry { return []wal.Entry{{Off: 0, Data: make([]byte, 1024)}} }

// TestLogReadsBoundedByRecordSize pins the cost of reading the log: the
// bytes requested from the mirror by ExecuteAndAdvance and by a scan of 64
// pending records stay within a small factor of the records' own encoded
// size, wherever the records sit in the ring, instead of growing with the
// size of the log.
func TestLogReadsBoundedByRecordSize(t *testing.T) {
	m := newMemRep(MirrorSizeFor(benchLog, testData))
	st, err := New(m, Config{LogSize: benchLog, DataSize: testData})
	if err != nil {
		t.Fatal(err)
	}
	entry := kibEntry()
	recSize := (&wal.Record{Entries: entry}).EncodedSize()
	const pending = 64
	// Errorf and return, not Fatal: the body runs on a fiber's goroutine.
	runMem(t, sim.NewKernel(3), func(f *sim.Fiber) {
		// Move head and tail to half the pending records short of the end
		// of the ring, so the scan meets records on both sides of the wrap.
		for {
			tail, err := st.Tail()
			if err != nil {
				t.Errorf("tail: %v", err)
				return
			}
			if tail > benchLog-pending/2*recSize {
				break
			}
			if _, err := st.Append(f, entry); err != nil {
				t.Errorf("filler append: %v", err)
				return
			}
			if _, err := st.ExecuteAndAdvance(f); err != nil {
				t.Errorf("filler execute: %v", err)
				return
			}
		}
		for i := 0; i < pending; i++ {
			if _, err := st.Append(f, entry); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
		head, _ := st.Head()
		tail, _ := st.Tail()
		if tail >= head {
			t.Errorf("head %d, tail %d: pending records do not straddle the wrap", head, tail)
			return
		}

		m.readBytes = 0
		seqs, err := st.PendingSeqs()
		if err != nil || len(seqs) != pending {
			t.Errorf("pending = %d records (%v), want %d", len(seqs), err, pending)
			return
		}
		if limit := 3 * pending * recSize; m.readBytes > limit {
			t.Errorf("scan of %d records of %d bytes read %d bytes, want <= %d",
				pending, recSize, m.readBytes, limit)
		}

		m.readBytes = 0
		if _, err := st.ExecuteAndAdvance(f); err != nil {
			t.Errorf("execute: %v", err)
			return
		}
		if limit := 3 * recSize; m.readBytes > limit {
			t.Errorf("ExecuteAndAdvance of a %d-byte record read %d bytes, want <= %d",
				recSize, m.readBytes, limit)
		}
	})
}

// TestRepairLogStopsAtMalformedPad: a pad marker of zero length, or one
// running past the ring's end, behind two records and under the tail is a
// torn tail. RepairLog keeps the two records and takes the tail back to
// the marker instead of spinning on it, and executing from there finds the
// log empty.
func TestRepairLogStopsAtMalformedPad(t *testing.T) {
	for _, padLen := range []uint32{0, testLog} {
		m, st, k := memStore(t)
		var (
			valid, tail, validEnd int
			repaired              bool
			kerr                  error
		)
		k.Spawn("repair", func(f *sim.Fiber) {
			for i := 0; i < 2; i++ {
				if _, err := st.Append(f, []wal.Entry{{Off: 8 * i, Data: []byte("record")}}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
			validEnd, _ = st.Tail()
			marker := make([]byte, 8)
			wal.EncodePad(marker)
			binary.LittleEndian.PutUint32(marker[4:], padLen)
			var ptr [8]byte
			binary.LittleEndian.PutUint64(ptr[:], uint64(validEnd+64))
			if m.WriteLocal(CtrlSize+validEnd, marker) != nil || m.WriteLocal(TailPtrOff, ptr[:]) != nil {
				t.Error("planting the pad failed")
				return
			}
			var err error
			if valid, repaired, err = st.RepairLog(f); err != nil {
				t.Errorf("repair: %v", err)
			}
			tail, _ = st.Tail()
			if n, err := st.ExecuteAll(f); n != 2 || err != nil {
				t.Errorf("execute after the repair = %d, %v; want the 2 records", n, err)
			}
		})
		done := make(chan struct{})
		go func() {
			defer close(done)
			kerr = k.RunUntil(k.Now().Add(sim.Second))
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("pad of %d bytes: RepairLog did not return", padLen)
		}
		if kerr != nil || valid != 2 || !repaired || tail != validEnd {
			t.Errorf("pad of %d bytes: RepairLog kept %d records (repaired %v), tail %d; want 2, true, %d (%v)",
				padLen, valid, repaired, tail, validEnd, kerr)
		}
	}
}

// TestFullLogNeverReadsEmpty: with the head at 0, an append whose record
// would end in the wrap strip would wrap the tail onto the head, and the
// full log would read as empty, its records lost. It fails with
// ErrLogFull instead, and the log keeps its one record.
func TestFullLogNeverReadsEmpty(t *testing.T) {
	_, st, k := memStore(t)
	runMem(t, k, func(f *sim.Fiber) {
		// 8 092 bytes from 0, then a 96-byte record ending 4 bytes short of
		// the ring's end.
		if _, err := st.Append(f, []wal.Entry{{Data: make([]byte, testLog-100-32)}}); err != nil {
			t.Errorf("first append: %v", err)
			return
		}
		if _, err := st.Append(f, []wal.Entry{{Data: make([]byte, 96-32)}}); !errors.Is(err, ErrLogFull) {
			t.Errorf("append into the last free bytes: %v, want ErrLogFull", err)
		}
		if seqs, err := st.PendingSeqs(); err != nil || len(seqs) != 1 || seqs[0] != 1 {
			t.Errorf("pending = %v, %v; want [1]", seqs, err)
		}
	})
}

// BenchmarkExecuteAndAdvance appends and executes one 1 KiB entry per
// iteration over an in-process replicator, so it times the transaction
// layer's own work on a log of the document store's size.
func BenchmarkExecuteAndAdvance(b *testing.B) {
	m := newMemRep(MirrorSizeFor(benchLog, testData))
	st, err := New(m, Config{LogSize: benchLog, DataSize: testData})
	if err != nil {
		b.Fatal(err)
	}
	entry := kibEntry()
	k := sim.NewKernel(3)
	k.Spawn("bench", func(f *sim.Fiber) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Append(f, entry); err != nil {
				b.Error(err)
				return
			}
			if _, err := st.ExecuteAndAdvance(f); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
