package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sort"
	"testing"

	"hyperloop/internal/hyperloop"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// benchConfig sizes the store like the repo benchmark's kv workloads: a
// checkpoint of 1 000 pairs of 1 KiB is a little over 1 MiB.
func benchConfig() Config {
	return Config{LogSize: 256 << 10, DataSize: 2 << 20, Seed: 1}
}

// kvSet is 1 000 keys and eight 1 KiB values to put under them.
type kvSet struct {
	keys, vals [][]byte
}

func newKVSet() *kvSet {
	s := &kvSet{keys: make([][]byte, 1000), vals: make([][]byte, 8)}
	for i := range s.keys {
		s.keys[i] = fmt.Appendf(nil, "user%06d", i)
	}
	for i := range s.vals {
		s.vals[i] = bytes.Repeat([]byte{byte('a' + i)}, 1024)
	}
	return s
}

// load puts every key once.
func (s *kvSet) load(f *sim.Fiber, db *DB) error {
	for i, key := range s.keys {
		if err := db.Put(f, key, s.vals[i%len(s.vals)]); err != nil {
			return fmt.Errorf("load %s: %w", key, err)
		}
	}
	return nil
}

// TestStreamHidesCheckpoint: over a 3-replica chain, 5 000 Puts of 1 KiB
// over 1 000 keys checkpoint the ≈ 1 MiB memtable many times, and every
// checkpoint is streamed behind the Puts: none is written inline, and no
// Put is more than 1 µs slower than the median. Written inline, the
// checkpoint made one Put in ~250 wait ~208 µs; a Put that waited for the
// previous Put's piece would take ~19.4 µs.
func TestStreamHidesCheckpoint(t *testing.T) {
	k, db, _ := testDB(t, benchConfig())
	s := newKVSet()
	var lat []sim.Duration
	var ckpts int64
	run(t, k, func(f *sim.Fiber) {
		if err := s.load(f, db); err != nil {
			t.Error(err)
			return
		}
		ckpts = db.Stats().Checkpoints
		rng := sim.NewRNG(3)
		for i := 0; i < 5000; i++ {
			t0 := f.Now()
			if err := db.Put(f, s.keys[rng.Intn(len(s.keys))], s.vals[i%len(s.vals)]); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
			lat = append(lat, f.Now().Sub(t0))
		}
	})
	sorted := append([]sim.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p50, worst := sorted[len(sorted)/2], sorted[len(sorted)-1]
	if worst > p50+sim.Microsecond {
		t.Errorf("slowest Put %v, median %v: want none slower than the median + 1µs", worst, p50)
	}
	if n := db.Stats().Checkpoints - ckpts; n < 10 {
		t.Errorf("%d checkpoints in 5 000 Puts, want at least 10", n)
	}
	if db.inline != 0 {
		t.Errorf("%d checkpoints written inline, want every one streamed", db.inline)
	}
}

// TestPieceCost is the probe behind pieceSize: on an idle 3-replica chain,
// the Append of a 1 KiB record right after one with a piece of n bytes
// posted behind it costs 12.95 µs with no piece, +0.03 µs after 16 KiB,
// +3.7 µs after 32 KiB and +18.5 µs after 64 KiB: past 16 KiB the piece
// still holds the hops when the next record arrives.
func TestPieceCost(t *testing.T) {
	next := func(n int) sim.Duration {
		k, db, _ := testDB(t, benchConfig())
		rec := []wal.Entry{{Off: 0, Data: bytes.Repeat([]byte{1}, 1024)}}
		piece := bytes.Repeat([]byte{2}, n)
		var sum sim.Duration
		run(t, k, func(f *sim.Fiber) {
			for range 10 {
				var sig *sim.Signal
				var err error
				if n == 0 {
					_, err = db.st.Append(f, rec)
				} else {
					_, sig, err = db.st.AppendData(f, rec, 0, n, func(_, m int) []byte { return piece[:m] })
				}
				t0 := f.Now()
				if _, err2 := db.st.Append(f, rec); err != nil || err2 != nil {
					t.Error(err, err2)
					return
				}
				sum += f.Now().Sub(t0)
				if sig != nil {
					_ = f.Await(sig) // long fired
				}
				f.Sleep(100 * sim.Microsecond) // the group idle again
			}
		})
		return sum / 10
	}
	alone := next(0)
	for _, c := range []struct {
		n        int
		min, max sim.Duration
	}{
		{pieceSize, 0, 500 * sim.Nanosecond},
		{2 * pieceSize, 2 * sim.Microsecond, 10 * sim.Microsecond},
		{4 * pieceSize, 10 * sim.Microsecond, 40 * sim.Microsecond},
	} {
		if d := next(c.n) - alone; d < c.min || d > c.max {
			t.Errorf("a %d KiB piece costs the next Append %v (alone %v), want %v–%v", c.n>>10, d, alone, c.min, c.max)
		}
	}
}

// TestStreamOverNaive: over the CPU-driven baseline, whose replica
// handlers process every piece, a stream completes or falls back to
// finishing inline when the log fills; no op fails, and the store recovers
// to the state it acknowledged.
func TestStreamOverNaive(t *testing.T) {
	cfg := benchConfig()
	r, g := testGroup(t, 5, 1, "naive", cfg)
	db, err := Open(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := newKVSet()
	model := make(map[string][]byte)
	err = r.Run(60*sim.Second, "naive-stream", func(f *sim.Fiber) error {
		if err := s.load(f, db); err != nil {
			return err
		}
		for i, key := range s.keys {
			model[string(key)] = s.vals[i%len(s.vals)]
		}
		rng := sim.NewRNG(5)
		for i := 0; i < 1500; i++ {
			key, val := s.keys[rng.Intn(len(s.keys))], s.vals[i%len(s.vals)]
			if err := db.Put(f, key, val); err != nil {
				return fmt.Errorf("put %d: %w", i, err)
			}
			model[string(key)] = val
		}
		return db.Checkpoint(f)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := db.Stats().Checkpoints; n < 5 {
		t.Fatalf("%d checkpoints, want at least 5", n)
	}
	t.Logf("%d checkpoints, %d written inline", db.Stats().Checkpoints, db.inline)
	g.(interface{ ClientNIC() *rdma.NIC }).ClientNIC().Memory().Crash()
	err = r.Run(10*sim.Second, "naive-recover", func(f *sim.Fiber) error { return db.Recover(f) })
	if err != nil {
		t.Fatal(err)
	}
	checkState(t, db, model)
}

// checkState fails unless db holds exactly model.
func checkState(t *testing.T, db *DB, model map[string][]byte) {
	t.Helper()
	if db.Len() != len(model) {
		t.Fatalf("store holds %d keys, want %d", db.Len(), len(model))
	}
	for k, v := range model {
		if got, ok := db.Get([]byte(k)); !ok || !bytes.Equal(got, v) {
			t.Fatalf("%q = %d bytes (found %v), want %d bytes", k, len(got), ok, len(v))
		}
	}
}

// TestLogFullWithPieceScheduled: small records start a stream late, since
// the headroom is reckoned in the latest record's size, and a burst of
// large ones then fills the log while the stream has pieces in flight and
// the next one planned behind the Put. That Put meets txn.ErrLogFull; the
// inline finish completes the running stream, and the Put posts nothing
// behind its retried Append. After each such Put the image on the client's
// mirror and on the tail replica is the layout of the state at the
// stream's snapshot, byte for byte, and at the end the store recovers to
// the state it acknowledged.
func TestLogFullWithPieceScheduled(t *testing.T) {
	cfg := Config{LogSize: 64 << 10, DataSize: 512 << 10, Seed: 3}
	k, db, g := testDB(t, cfg)
	model := make(map[string][]byte)
	for i := range 300 { // a 300 KiB image: 19 pieces
		key, val := fmt.Appendf(nil, "p%04d", i), bytes.Repeat([]byte{byte(i)}, 1000)
		db.mem.put(key, val)
		model[string(key)] = val
	}
	var snap map[string][]byte
	scheduled := 0
	run(t, k, func(f *sim.Fiber) {
		large := bytes.Repeat([]byte{7}, 8<<10)
		c := &db.ckpt
		for i := 0; i < 20000 && scheduled < 5; i++ {
			key, val := fmt.Appendf(nil, "s%02d", i%50), fmt.Appendf(nil, "v%d", i)
			if used, _ := db.st.LogUsed(); c.size > 0 && c.pos >= 2*pieceSize && cfg.LogSize-used < len(large) {
				val = large // two pieces are out and the log cannot take it
			}
			planned := c.size > 0 && c.pos < c.size
			inflight, inline, epoch := db.nflying, db.inline, db.mem.epoch
			if err := db.Put(f, key, val); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
			if planned && inflight > 0 && db.inline > inline {
				scheduled++
				if !checkImage(t, g, db, layout(snap)) {
					return
				}
			}
			model[string(key)] = val
			if db.mem.epoch != epoch && c.size > 0 {
				snap = maps.Clone(model) // a stream began behind this Put
			}
		}
	})
	if scheduled < 5 {
		t.Fatalf("%d Puts met a full log with a piece scheduled and one in flight, want 5", scheduled)
	}
	run(t, k, func(f *sim.Fiber) {
		if err := db.Checkpoint(f); err != nil { // the stream running now, finished
			t.Errorf("checkpoint: %v", err)
		}
	})
	g.ClientNIC().Memory().Crash()
	run(t, k, func(f *sim.Fiber) {
		if err := db.Recover(f); err != nil {
			t.Errorf("recover: %v", err)
		}
	})
	checkState(t, db, model)
}

// checkImage reports whether the client's mirror and the tail replica hold
// want at the start of the data region, failing t when they do not. It
// runs inside fibers, so it never stops the test.
func checkImage(t *testing.T, g *hyperloop.Group, db *DB, want []byte) bool {
	t.Helper()
	got, err := db.Store().ViewData(0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("client mirror holds an image that differs from the snapshot's layout (%d bytes, %v)", len(want), err)
		return false
	}
	tail := make([]byte, len(want))
	if err := g.ReplicaNIC(g.GroupSize()-1).Memory().Read(db.Store().DataOff(), tail); err != nil || !bytes.Equal(tail, want) {
		t.Errorf("the tail replica holds an image that differs from the snapshot's layout (%v)", err)
		return false
	}
	return true
}

// TestTornCheckpoint: a crash in the middle of rewriting a checkpoint
// leaves an image whose CRC fails. Recover and LoadView report it as
// ErrTorn rather than dropping the image and the keys only it held —
// unless the log still holds every record since the store's first, as
// during a store's first checkpoint. A data region with no checkpoint
// magic still recovers from the log alone.
func TestTornCheckpoint(t *testing.T) {
	cfg := Config{LogSize: 64 << 10, DataSize: 256 << 10, Seed: 3}
	for _, tc := range []struct {
		name     string
		first    bool // tear the store's first checkpoint, the log still whole
		wantTorn bool
	}{
		{"after-truncation", false, true},
		{"first-checkpoint", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, db, g := testDB(t, cfg)
			model := make(map[string][]byte)
			put := func(f *sim.Fiber, i int) {
				key, val := fmt.Appendf(nil, "k%03d", i%500), fmt.Appendf(nil, "v%d", i)
				if err := db.Put(f, key, val); err != nil {
					t.Errorf("put %d: %v", i, err)
				}
				model[string(key)] = val
			}
			run(t, k, func(f *sim.Fiber) {
				for i := range 500 {
					put(f, i)
				}
				if tc.first { // the image written, the log not yet truncated
					size := db.ckpt.start(db.mem)
					if err := db.st.WriteFrom(f, 0, size, db.ckpt.chunk); err != nil {
						t.Errorf("image: %v", err)
					}
					return
				}
				if err := db.Checkpoint(f); err != nil {
					t.Errorf("checkpoint: %v", err)
				}
				put(f, 500)
			})
			// Tear the image: 4 KiB in its middle hold other bytes.
			hdr, _ := db.Store().ViewData(0, ckptHeaderSize)
			size := ckptHeaderSize + int(binary.LittleEndian.Uint32(hdr[8:]))
			off := db.Store().DataOff() + size/2
			mem := g.ClientNIC().Memory()
			if err := mem.Write(off, bytes.Repeat([]byte{0xEE}, 4<<10)); err != nil {
				t.Fatal(err)
			}
			if _, err := mem.Flush(off, 4<<10); err != nil {
				t.Fatal(err)
			}
			var rerr error
			run(t, k, func(f *sim.Fiber) { rerr = db.Recover(f) })
			mirror := make([]byte, MirrorSizeFor(cfg))
			if err := g.ClientNIC().Memory().Read(0, mirror); err != nil {
				t.Fatal(err)
			}
			_, verr := LoadView(mirror, cfg)
			if !errors.Is(verr, ErrTorn) {
				t.Errorf("LoadView: %v, want ErrTorn", verr)
			}
			if !tc.wantTorn {
				if rerr != nil {
					t.Fatalf("recover: %v", rerr)
				}
				checkState(t, db, model)
				return
			}
			if !errors.Is(rerr, ErrTorn) {
				t.Fatalf("recover: %v, want ErrTorn", rerr)
			}
		})
	}
}

// FuzzCheckpointSnapshot drives a store over a 3-replica chain from
// script, per three bytes an op, a key and a size: a Put of size×8 bytes
// (0 is an empty value), a Delete, an explicit Checkpoint, or a Put of
// 3 KiB, which a small log cannot take for long, so a full log finishes
// the running stream inline. The log is small against the image, so a
// stream runs behind most Puts, and overwrites and deletes hit keys it has
// still to write. Whenever a checkpoint completes, the image on the
// client's mirror and on the tail replica must be the layout of the
// model's state at the snapshot it was taken of — the state when the log
// tail stood where the head now is. After the script, Recover from a
// quiet point (a Checkpoint, then a client crash) must give the model.
func FuzzCheckpointSnapshot(f *testing.F) {
	f.Add([]byte{0, 1, 200, 0, 2, 200, 0, 3, 200, 0, 4, 200, 0, 1, 9, 4, 2, 0, 0, 5, 0, 7, 6, 0, 0, 1, 3, 6, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 7, 250, 1, 9, 250, 2, 7, 1, 4, 9, 0, 0, 11, 0, 7, 3, 0}, 12))
	f.Add(bytes.Repeat([]byte{0, 1, 120, 0, 2, 255, 0, 3, 60, 4, 1, 0, 7, 20, 0, 0, 2, 0, 6, 0, 0}, 8))
	// Forty 2 KiB values make a five-piece image; small overwrites of the
	// last keys then reach them before their pieces are written.
	var big []byte
	for i := range 40 {
		big = append(big, 0, byte(i), 250)
	}
	for i := range 80 {
		big = append(big, byte(i%6), byte(39-i%12), byte(i%3))
	}
	f.Add(big)
	f.Fuzz(func(t *testing.T, script []byte) {
		cfg := Config{LogSize: 12 << 10, DataSize: 256 << 10, Seed: 1}
		k, db, g := testDB(t, cfg)
		model := make(map[string][]byte)
		byTail := make(map[int]map[string][]byte) // the model when the log tail was there last
		note := func() {
			tail, _ := db.st.Tail()
			byTail[tail] = maps.Clone(model)
		}
		run(t, k, func(f *sim.Fiber) {
			note()
			for i := 0; i+3 <= len(script); i += 3 {
				key := fmt.Appendf(nil, "k%02d", script[i+1]%48)
				val := bytes.Repeat([]byte{byte(i)}, 8*int(script[i+2]))
				done := db.stats.Checkpoints
				var err error
				switch script[i] % 8 {
				case 4, 5:
					err = db.Delete(f, key)
					delete(model, string(key))
				case 6:
					err = db.Checkpoint(f)
				case 7:
					val = bytes.Repeat([]byte{byte(i)}, 3<<10)
					fallthrough
				default:
					err = db.Put(f, key, val)
					model[string(key)] = val
				}
				if err != nil {
					t.Errorf("op %d: %v", i/3, err)
					return
				}
				if db.stats.Checkpoints != done {
					head, _ := db.st.Head()
					snap, ok := byTail[head]
					if !ok {
						t.Errorf("op %d: the head moved to %d, where the log tail never stood", i/3, head)
						return
					}
					if !checkImage(t, g, db, layout(snap)) {
						t.Errorf("op %d: the image completed is not the state at its snapshot", i/3)
						return
					}
				}
				note()
			}
			if err := db.Checkpoint(f); err != nil {
				t.Errorf("final checkpoint: %v", err)
			}
		})
		g.ClientNIC().Memory().Crash()
		run(t, k, func(f *sim.Fiber) {
			if err := db.Recover(f); err != nil {
				t.Errorf("recover: %v", err)
			}
		})
		if !t.Failed() {
			checkState(t, db, model)
		}
	})
}
