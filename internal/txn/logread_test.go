package txn

import (
	"testing"

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
