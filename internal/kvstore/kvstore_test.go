package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"testing"
	"testing/quick"

	"hyperloop/internal/hyperloop"
	"hyperloop/internal/protocol"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
)

// testGroup builds a rack of 3 servers with the given cores each and one
// group of the registry protocol proto, sized for cfg, across them.
func testGroup(t testing.TB, seed uint64, cores int, proto string, cfg Config) (*topo.Rack, protocol.Protocol) {
	t.Helper()
	r, err := topo.Build(topo.Spec{Seed: seed, Servers: 3, Cores: cores, DevExtra: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	g, err := r.Group(topo.GroupSpec{Servers: topo.FirstServers(3), Mirror: MirrorSizeFor(cfg)}, protocol.Named(proto), protocol.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return r, g
}

func testDB(t testing.TB, cfg Config) (*sim.Kernel, *DB, *hyperloop.Group) {
	t.Helper()
	r, g := testGroup(t, 5, 0, "chain", cfg)
	db, err := Open(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.Kernel, db, g.(*hyperloop.Group)
}

func run(t testing.TB, k *sim.Kernel, fn func(f *sim.Fiber)) {
	t.Helper()
	k.Spawn("kv-test", fn)
	if err := k.Run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
}

func smallConfig() Config {
	return Config{LogSize: 16 * 1024, DataSize: 64 * 1024, Seed: 3}
}

func TestSkiplistBasic(t *testing.T) {
	s := newSkiplist(sim.NewRNG(1))
	s.put([]byte("b"), []byte("2"))
	s.put([]byte("a"), []byte("1"))
	s.put([]byte("c"), []byte("3"))
	if v, ok, _ := s.get([]byte("b")); !ok || string(v) != "2" {
		t.Fatalf("get b = %q, %v", v, ok)
	}
	if _, ok, _ := s.get([]byte("zz")); ok {
		t.Fatal("missing key found")
	}
	s.put([]byte("b"), []byte("2x")) // overwrite
	if v, _, _ := s.get([]byte("b")); string(v) != "2x" {
		t.Fatalf("overwrite failed: %q", v)
	}
	s.put([]byte("a"), nil) // tombstone
	if _, found, tomb := s.get([]byte("a")); !found || !tomb {
		t.Fatal("tombstone lost")
	}
	got := s.scan([]byte(""), 10)
	if len(got) != 2 || string(got[0].key) != "b" || string(got[1].key) != "c" {
		t.Fatalf("scan = %v", got)
	}
	if s.size != 2 {
		t.Fatalf("size = %d", s.size)
	}
}

func TestSkiplistAgainstModelProperty(t *testing.T) {
	type op struct {
		Del bool
		Key uint8
		Val uint16
	}
	f := func(ops []op) bool {
		s := newSkiplist(sim.NewRNG(9))
		model := make(map[string][]byte)
		for _, o := range ops {
			key := []byte{o.Key % 32}
			if o.Del {
				s.put(key, nil)
				delete(model, string(key))
			} else {
				val := []byte{byte(o.Val), byte(o.Val >> 8)}
				s.put(key, val)
				model[string(key)] = val
			}
		}
		if s.size != len(model) {
			return false
		}
		for k, v := range model {
			got, ok, tomb := s.get([]byte(k))
			if !ok || tomb || !bytes.Equal(got, v) {
				return false
			}
		}
		// Scan order must equal sorted model keys.
		var keys []string
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		scanned := s.scan(nil, 1<<30)
		if len(scanned) != len(keys) {
			return false
		}
		for i, k := range keys {
			if string(scanned[i].key) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetDelete(t *testing.T) {
	k, db, _ := testDB(t, smallConfig())
	run(t, k, func(f *sim.Fiber) {
		if err := db.Put(f, []byte("user1"), []byte("alice")); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		if v, ok := db.Get([]byte("user1")); !ok || string(v) != "alice" {
			t.Errorf("get = %q, %v", v, ok)
		}
		if err := db.Delete(f, []byte("user1")); err != nil {
			t.Errorf("delete: %v", err)
			return
		}
		if _, ok := db.Get([]byte("user1")); ok {
			t.Error("deleted key still visible")
		}
	})
	st := db.Stats()
	if st.Puts != 1 || st.Deletes != 1 || st.Gets != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestScanOrdering(t *testing.T) {
	k, db, _ := testDB(t, smallConfig())
	run(t, k, func(f *sim.Fiber) {
		for i := 9; i >= 0; i-- {
			key := []byte(fmt.Sprintf("key%02d", i))
			if err := db.Put(f, key, []byte{byte(i)}); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		pairs := db.Scan([]byte("key03"), 4)
		if len(pairs) != 4 {
			t.Errorf("scan returned %d", len(pairs))
			return
		}
		for i, p := range pairs {
			want := fmt.Sprintf("key%02d", i+3)
			if string(p.Key) != want {
				t.Errorf("scan[%d] = %s, want %s", i, p.Key, want)
			}
		}
	})
}

func TestAutomaticCheckpointOnFullLog(t *testing.T) {
	cfg := smallConfig()
	k, db, _ := testDB(t, cfg)
	run(t, k, func(f *sim.Fiber) {
		val := bytes.Repeat([]byte{7}, 900)
		for i := 0; i < 60; i++ { // ≫ log capacity
			if err := db.Put(f, []byte(fmt.Sprintf("k%03d", i%10)), val); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
	})
	if db.Stats().Checkpoints == 0 {
		t.Fatal("log never checkpointed despite filling")
	}
	if db.Len() != 10 {
		t.Fatalf("len = %d", db.Len())
	}
}

// warmPuts returns a Put cycling over ten keys with one 900-byte value,
// after driving it through many log wraps, each of which checkpoints (a
// full smallConfig log holds 17 such records), for 200 virtual ms: a dozen
// turns of the kernel's timing wheel, whose slots grow on first use, so
// every slot has held a checkpoint's burst of events.
func warmPuts(f *sim.Fiber, db *DB, fail func(error)) func() {
	keys := make([][]byte, 10)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%03d", i))
	}
	val := bytes.Repeat([]byte{7}, 900)
	i := 0
	put := func() {
		if err := db.Put(f, keys[i%len(keys)], val); err != nil {
			fail(err)
		}
		i++
	}
	for f.Now() < sim.Time(200*sim.Millisecond) {
		put()
	}
	return put
}

// TestPutSteadyStateAllocs: over a chain group, a Put allocates nothing
// once the key set exists and the log has wrapped — the checkpoint a full
// log triggers included: the op record and the image are built in the
// DB's buffers, from the memtable in place.
func TestPutSteadyStateAllocs(t *testing.T) {
	k, db, _ := testDB(t, smallConfig())
	run(t, k, func(f *sim.Fiber) {
		put := warmPuts(f, db, func(err error) { t.Error(err) })
		const runs = 20
		ckpts := db.Stats().Checkpoints
		allocs := testing.AllocsPerRun(runs, func() {
			for j := 0; j < 20; j++ {
				put()
			}
		})
		if n := db.Stats().Checkpoints - ckpts; n < runs+1 {
			t.Errorf("%d checkpoints in %d runs, want one in each", n, runs+1)
		}
		if allocs != 0 {
			t.Errorf("20 Puts and a checkpoint: %v allocations, want 0", allocs)
		}
	})
}

// BenchmarkPut is one 900-byte Put over a 3-replica chain, the
// checkpoints a full log triggers included; allocs/op is the store's
// steady-state garbage.
func BenchmarkPut(b *testing.B) {
	k, db, _ := testDB(b, smallConfig())
	b.ReportAllocs()
	run(b, k, func(f *sim.Fiber) {
		put := warmPuts(f, db, func(err error) { b.Error(err) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			put()
		}
		b.StopTimer()
	})
}

func TestRecoveryAfterCrash(t *testing.T) {
	cfg := smallConfig()
	cfg.CheckpointEvery = 7
	k, db, g := testDB(t, cfg)
	want := make(map[string]string)
	run(t, k, func(f *sim.Fiber) {
		for i := 0; i < 25; i++ {
			key, val := fmt.Sprintf("key%02d", i%12), fmt.Sprintf("val%d", i)
			if err := db.Put(f, []byte(key), []byte(val)); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			want[key] = val
		}
		if err := db.Delete(f, []byte("key03")); err != nil {
			t.Errorf("delete: %v", err)
			return
		}
		delete(want, "key03")
	})

	// Power-fail the client; recovery must rebuild from durable state.
	g.ClientNIC().Memory().Crash()
	run(t, k, func(f *sim.Fiber) {
		if err := db.Recover(f); err != nil {
			t.Errorf("recover: %v", err)
		}
	})
	for key, val := range want {
		got, ok := db.Get([]byte(key))
		if !ok || string(got) != val {
			t.Fatalf("after recovery %s = %q (%v), want %q", key, got, ok, val)
		}
	}
	if _, ok := db.Get([]byte("key03")); ok {
		t.Fatal("deleted key resurrected by recovery")
	}
	if db.Len() != len(want) {
		t.Fatalf("len = %d, want %d", db.Len(), len(want))
	}
}

func TestReplicaViewEventuallyConsistent(t *testing.T) {
	cfg := smallConfig()
	k, db, g := testDB(t, cfg)
	run(t, k, func(f *sim.Fiber) {
		for i := 0; i < 15; i++ {
			if err := db.Put(f, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		if err := db.Delete(f, []byte("k05")); err != nil {
			t.Errorf("delete: %v", err)
		}
	})
	// Every replica's own NVM must reconstruct the exact same state.
	for i := 0; i < g.GroupSize(); i++ {
		mem := g.ReplicaNIC(i).Memory()
		img := make([]byte, MirrorSizeFor(cfg))
		if err := mem.Read(0, img); err != nil {
			t.Fatal(err)
		}
		view, err := LoadView(img, cfg)
		if err != nil {
			t.Fatalf("replica %d view: %v", i, err)
		}
		if len(view) != db.Len() {
			t.Fatalf("replica %d view has %d keys, client %d", i, len(view), db.Len())
		}
		for _, p := range db.Scan(nil, 1000) {
			if !bytes.Equal(view[string(p.Key)], p.Value) {
				t.Fatalf("replica %d key %s = %q, want %q", i, p.Key, view[string(p.Key)], p.Value)
			}
		}
		if _, ok := view["k05"]; ok {
			t.Fatalf("replica %d resurrected deleted key", i)
		}
	}
}

func TestReplicaViewAfterCheckpoint(t *testing.T) {
	cfg := smallConfig()
	k, db, g := testDB(t, cfg)
	run(t, k, func(f *sim.Fiber) {
		for i := 0; i < 10; i++ {
			_ = db.Put(f, []byte(fmt.Sprintf("c%d", i)), []byte("x"))
		}
		if err := db.Checkpoint(f); err != nil {
			t.Errorf("checkpoint: %v", err)
			return
		}
		// A few post-checkpoint writes live only in the log.
		_ = db.Put(f, []byte("post1"), []byte("y"))
		_ = db.Put(f, []byte("c3"), []byte("updated"))
	})
	img := make([]byte, MirrorSizeFor(cfg))
	_ = g.ReplicaNIC(2).Memory().Read(0, img)
	view, err := LoadView(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(view["post1"]) != "y" || string(view["c3"]) != "updated" {
		t.Fatalf("view = %v", view)
	}
	if len(view) != 11 {
		t.Fatalf("view size = %d, want 11", len(view))
	}
}

func TestValidationErrors(t *testing.T) {
	k, db, _ := testDB(t, smallConfig())
	run(t, k, func(f *sim.Fiber) {
		if err := db.Put(f, nil, []byte("x")); err == nil {
			t.Error("empty key accepted")
		}
	})
	if _, err := Open(nil, Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestMutationsAreDurableOnReplicasImmediately(t *testing.T) {
	// The ack implies durability: crash every replica right after the Put
	// returns and the op must be recoverable from any replica's durable
	// image.
	cfg := smallConfig()
	k, db, g := testDB(t, cfg)
	run(t, k, func(f *sim.Fiber) {
		if err := db.Put(f, []byte("durable-key"), []byte("durable-val")); err != nil {
			t.Errorf("put: %v", err)
		}
	})
	for i := 0; i < g.GroupSize(); i++ {
		mem := g.ReplicaNIC(i).Memory()
		mem.Crash()
		img := make([]byte, MirrorSizeFor(cfg))
		_ = mem.Read(0, img)
		view, err := LoadView(img, cfg)
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if string(view["durable-key"]) != "durable-val" {
			t.Fatalf("replica %d lost acknowledged write across power failure", i)
		}
	}
}

// TestCheckpointImageLayout holds encodeCheckpoint to the on-NVM layout —
// a 16-byte header (magic, pair count, body length, body CRC) and then the
// body of (klen u16, vlen u32, key, value) pairs, tombstones dropped — by
// building the same image the long way round: body first, header after.
func TestCheckpointImageLayout(t *testing.T) {
	db := &DB{mem: newSkiplist(sim.NewRNG(1))}
	live := map[string]string{"a": "1", "key-b": "", "c": string(bytes.Repeat([]byte{0xC3}, 1024))}
	for k, v := range live {
		db.mem.put([]byte(k), []byte(v))
	}
	db.mem.put([]byte("dead"), nil) // tombstone

	keys := make([]string, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var body []byte
	for _, k := range keys {
		body = binary.LittleEndian.AppendUint16(body, uint16(len(k)))
		body = binary.LittleEndian.AppendUint32(body, uint32(len(live[k])))
		body = append(append(body, k...), live[k]...)
	}
	want := binary.LittleEndian.AppendUint32(nil, ckptMagic)
	want = binary.LittleEndian.AppendUint32(want, uint32(len(keys)))
	want = binary.LittleEndian.AppendUint32(want, uint32(len(body)))
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(body))
	want = append(want, body...)

	img := db.encodeCheckpoint()
	if !bytes.Equal(img, want) {
		t.Fatalf("checkpoint image differs from the header+body layout (%d vs %d bytes)", len(img), len(want))
	}
	pairs, err := decodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(keys) {
		t.Fatalf("decoded %d pairs, want %d", len(pairs), len(keys))
	}
	for i, p := range pairs {
		if string(p.Key) != keys[i] || string(p.Value) != live[keys[i]] {
			t.Fatalf("pair %d = %q, want key %q", i, p.Key, keys[i])
		}
	}
}
