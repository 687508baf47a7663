package docstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hyperloop/internal/hyperloop"
	"hyperloop/internal/protocol"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
)

func smallConfig() Config {
	return Config{LogSize: 32 * 1024, DataSize: 128 * 1024, SlotSize: 1024}
}

func testStore(t testing.TB, cfg Config) (*sim.Kernel, *Store, *hyperloop.Group) {
	t.Helper()
	r, err := topo.Build(topo.Spec{Seed: 11, Servers: 3, DevExtra: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	g, err := r.Group(topo.GroupSpec{Servers: topo.FirstServers(3), Mirror: MirrorSizeFor(cfg)}, protocol.Named("chain"), protocol.Params{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.Kernel, s, g.(*hyperloop.Group)
}

func run(t testing.TB, k *sim.Kernel, fn func(f *sim.Fiber)) {
	t.Helper()
	k.Spawn("doc-test", fn)
	if err := k.Run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
}

func TestInsertFind(t *testing.T) {
	k, s, _ := testStore(t, smallConfig())
	run(t, k, func(f *sim.Fiber) {
		doc := Doc{"_id": "u1", "name": "alice", "age": float64(30)}
		if err := s.Insert(f, "users", doc); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		got, err := s.FindID("users", "u1")
		if err != nil {
			t.Errorf("find: %v", err)
			return
		}
		if got["name"] != "alice" || got["age"] != float64(30) {
			t.Errorf("doc = %v", got)
		}
		if s.Count("users") != 1 {
			t.Errorf("count = %d", s.Count("users"))
		}
	})
}

func TestInsertValidation(t *testing.T) {
	k, s, _ := testStore(t, smallConfig())
	run(t, k, func(f *sim.Fiber) {
		if err := s.Insert(f, "c", Doc{"x": 1}); !errors.Is(err, ErrBadArgument) {
			t.Errorf("missing _id err = %v", err)
		}
		if err := s.Insert(f, "c", Doc{"_id": 5}); !errors.Is(err, ErrBadArgument) {
			t.Errorf("non-string _id err = %v", err)
		}
		if err := s.Insert(f, "c", Doc{"_id": "a"}); err != nil {
			t.Errorf("insert: %v", err)
		}
		if err := s.Insert(f, "c", Doc{"_id": "a"}); !errors.Is(err, ErrExists) {
			t.Errorf("duplicate err = %v", err)
		}
		big := make([]byte, 2000)
		if err := s.Insert(f, "c", Doc{"_id": "big", "blob": string(big)}); !errors.Is(err, ErrTooLarge) {
			t.Errorf("oversize err = %v", err)
		}
	})
}

func TestUpdateMergesFields(t *testing.T) {
	k, s, _ := testStore(t, smallConfig())
	run(t, k, func(f *sim.Fiber) {
		if err := s.Insert(f, "users", Doc{"_id": "u1", "a": "1", "b": "2"}); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		if err := s.Update(f, "users", "u1", Doc{"b": "22", "c": "3"}); err != nil {
			t.Errorf("update: %v", err)
			return
		}
		doc, err := s.FindID("users", "u1")
		if err != nil {
			t.Errorf("find: %v", err)
			return
		}
		if doc["a"] != "1" || doc["b"] != "22" || doc["c"] != "3" {
			t.Errorf("merged doc = %v", doc)
		}
		if err := s.Update(f, "users", "nope", Doc{"x": 1}); !errors.Is(err, ErrNotFound) {
			t.Errorf("update missing err = %v", err)
		}
	})
}

func TestDeleteFreesSlot(t *testing.T) {
	cfg := smallConfig()
	cfg.DataSize = 4 * cfg.SlotSize // only 4 slots
	k, s, _ := testStore(t, cfg)
	run(t, k, func(f *sim.Fiber) {
		for i := 0; i < 4; i++ {
			if err := s.Insert(f, "c", Doc{"_id": fmt.Sprintf("d%d", i)}); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
		if err := s.Insert(f, "c", Doc{"_id": "overflow"}); !errors.Is(err, ErrNoSpace) {
			t.Errorf("full err = %v", err)
			return
		}
		if err := s.Delete(f, "c", "d2"); err != nil {
			t.Errorf("delete: %v", err)
			return
		}
		if _, err := s.FindID("c", "d2"); !errors.Is(err, ErrNotFound) {
			t.Errorf("find deleted err = %v", err)
		}
		if err := s.Insert(f, "c", Doc{"_id": "reuse"}); err != nil {
			t.Errorf("reuse: %v", err)
		}
	})
}

func TestScanOrder(t *testing.T) {
	k, s, _ := testStore(t, smallConfig())
	run(t, k, func(f *sim.Fiber) {
		for _, id := range []string{"m", "a", "z", "q", "b"} {
			if err := s.Insert(f, "c", Doc{"_id": id}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
		docs, err := s.Scan("c", "b", 3)
		if err != nil {
			t.Errorf("scan: %v", err)
			return
		}
		var ids []string
		for _, d := range docs {
			ids = append(ids, d["_id"].(string))
		}
		want := []string{"b", "m", "q"}
		for i := range want {
			if ids[i] != want[i] {
				t.Errorf("scan ids = %v, want %v", ids, want)
				return
			}
		}
	})
}

func TestReplicaReadSeesCommittedDoc(t *testing.T) {
	k, s, g := testStore(t, smallConfig())
	run(t, k, func(f *sim.Fiber) {
		if err := s.Insert(f, "users", Doc{"_id": "u9", "v": "replica-visible"}); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		for i := 0; i < g.GroupSize(); i++ {
			mem := g.ReplicaNIC(i).Memory()
			reader := func(off, n int) ([]byte, error) {
				buf := make([]byte, n)
				err := mem.Read(off, buf)
				return buf, err
			}
			doc, err := s.ReadReplica(f, i, reader, "users", "u9")
			if err != nil {
				t.Errorf("replica %d read: %v", i, err)
				return
			}
			if doc["v"] != "replica-visible" {
				t.Errorf("replica %d doc = %v", i, doc)
			}
		}
		n, _ := s.Txn().Readers()
		if n != 0 {
			t.Errorf("reader count leaked: %d", n)
		}
	})
}

func TestDocsAreDurable(t *testing.T) {
	k, s, g := testStore(t, smallConfig())
	run(t, k, func(f *sim.Fiber) {
		if err := s.Insert(f, "c", Doc{"_id": "p1", "v": "persist"}); err != nil {
			t.Errorf("insert: %v", err)
		}
	})
	// Crash every replica: the committed (executed) document must be in
	// each one's durable data region.
	for i := 0; i < g.GroupSize(); i++ {
		mem := g.ReplicaNIC(i).Memory()
		mem.Crash()
		off := s.Txn().DataOff() // doc p1 went to slot 0
		img := make([]byte, s.cfg.SlotSize)
		_ = mem.Read(off, img)
		payload, _, ok := decodeSlot(img)
		if !ok {
			t.Fatalf("replica %d lost committed doc", i)
		}
		if string(payload) == "" {
			t.Fatalf("replica %d empty payload", i)
		}
	}
}

func TestRecoverRebuildsDirectory(t *testing.T) {
	k, s, g := testStore(t, smallConfig())
	run(t, k, func(f *sim.Fiber) {
		for i := 0; i < 8; i++ {
			if err := s.Insert(f, "users", Doc{"_id": fmt.Sprintf("u%d", i), "n": float64(i)}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
		if err := s.Delete(f, "users", "u3"); err != nil {
			t.Errorf("delete: %v", err)
			return
		}
		if err := s.Update(f, "users", "u5", Doc{"n": float64(55)}); err != nil {
			t.Errorf("update: %v", err)
		}
	})

	g.ClientNIC().Memory().Crash()
	run(t, k, func(f *sim.Fiber) {
		if err := s.Recover(f); err != nil {
			t.Errorf("recover: %v", err)
		}
	})
	if s.Count("users") != 7 {
		t.Fatalf("count after recovery = %d, want 7", s.Count("users"))
	}
	if _, err := s.FindID("users", "u3"); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted doc resurrected")
	}
	doc, err := s.FindID("users", "u5")
	if err != nil || doc["n"] != float64(55) {
		t.Fatalf("u5 after recovery = %v (%v)", doc, err)
	}
	// New inserts must keep working (free slots correctly identified).
	run(t, k, func(f *sim.Fiber) {
		if err := s.Insert(f, "users", Doc{"_id": "post-recovery"}); err != nil {
			t.Errorf("post-recovery insert: %v", err)
		}
	})
}

// TestUpdateKeepsCollection: Update never rewrites the "_coll" stamp, so
// a document that asks to move cannot take its collection with it when
// Recover names collections from their documents.
func TestUpdateKeepsCollection(t *testing.T) {
	k, s, g := testStore(t, smallConfig())
	run(t, k, func(f *sim.Fiber) {
		for _, id := range []string{"a", "b"} {
			if err := s.Insert(f, "users", Doc{"_id": id}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
		if err := s.Update(f, "users", "a", Doc{"_coll": "other", "v": "x"}); err != nil {
			t.Errorf("update: %v", err)
		}
	})
	g.ClientNIC().Memory().Crash()
	run(t, k, func(f *sim.Fiber) {
		if err := s.Recover(f); err != nil {
			t.Errorf("recover: %v", err)
		}
	})
	if s.Count("users") != 2 || s.Count("other") != 0 {
		t.Fatalf("after recovery: %d in users, %d in other; want 2 and 0", s.Count("users"), s.Count("other"))
	}
	if doc, err := s.FindID("users", "a"); err != nil || doc["_coll"] != "users" || doc["v"] != "x" {
		t.Fatalf("a after recovery = %v (%v)", doc, err)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil, Config{SlotSize: 4, DataSize: 100, LogSize: 100}); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("tiny slot err = %v", err)
	}
	if _, err := Open(nil, Config{SlotSize: 512, DataSize: 100, LogSize: 100}); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("tiny data err = %v", err)
	}
}

// TestReplicaReadRejectsTornSlot: a replica slot whose payload fails its
// CRC comes back from ReadReplica as an error, not as a half-written
// document, and the read lock is released all the same.
func TestReplicaReadRejectsTornSlot(t *testing.T) {
	k, s, g := testStore(t, smallConfig())
	run(t, k, func(f *sim.Fiber) {
		if err := s.Insert(f, "c", Doc{"_id": "torn", "v": "x"}); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		// Corrupt one payload byte on the replica (a slot a crash tore).
		mem := g.ReplicaNIC(0).Memory()
		off := s.Txn().DataOff() // slot 0
		b := make([]byte, 1)
		_ = mem.Read(off+20, b)
		_ = mem.Write(off+20, []byte{b[0] ^ 0xFF})
		reader := func(off, n int) ([]byte, error) {
			buf := make([]byte, n)
			err := mem.Read(off, buf)
			return buf, err
		}
		if doc, err := s.ReadReplica(f, 0, reader, "c", "torn"); err == nil {
			t.Errorf("torn read = %v, want an error", doc)
		}
		if n, _ := s.Txn().Readers(); n != 0 {
			t.Errorf("reader count leaked: %d", n)
		}
	})
}

// TestStraddlingSlotReadAllocs: a slot that crosses a 4 KiB nvm page is
// assembled in the client device's one view buffer, so the in-place slot
// read FindID decodes from allocates nothing.
func TestStraddlingSlotReadAllocs(t *testing.T) {
	k, s, _ := testStore(t, smallConfig())
	run(t, k, func(f *sim.Fiber) {
		off, straddles := 0, false
		for i := 0; !straddles; i++ {
			id := fmt.Sprintf("d%d", i)
			if err := s.Insert(f, "c", Doc{"_id": id}); err != nil {
				t.Error(err)
				return
			}
			off = s.st.DataOff() + s.slotOff(s.dir["c"][id])
			straddles = off/4096 != (off+s.cfg.SlotSize-1)/4096
		}
		var payload []byte
		allocs := testing.AllocsPerRun(100, func() {
			img, err := s.r.ViewLocal(off, s.cfg.SlotSize)
			if err == nil {
				payload, _, _ = decodeSlot(img)
			}
		})
		if allocs != 0 {
			t.Errorf("straddling slot read: %v allocations, want 0", allocs)
		}
		if !bytes.Contains(payload, []byte(`"_coll":"c"`)) {
			t.Errorf("straddling slot decoded to %q", payload)
		}
	})
}
