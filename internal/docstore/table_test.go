package docstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"

	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
)

// mirrorDoc decodes id's slot in the client's mirror with encoding/json
// directly: the image the decoded-document table must agree with.
func mirrorDoc(s *Store, coll, id string) (Doc, error) {
	img, err := s.r.ViewLocal(s.st.DataOff()+s.slotOff(s.dir[coll][id]), s.cfg.SlotSize)
	if err != nil {
		return nil, err
	}
	payload, _, ok := decodeSlot(img)
	if !ok {
		return nil, fmt.Errorf("slot of %s/%s holds no document", coll, id)
	}
	var doc Doc
	err = json.Unmarshal(payload, &doc)
	return doc, err
}

// tableAgrees checks that FindID returns exactly what the client's slot
// holds, for every live document in coll.
func tableAgrees(s *Store, coll string) error {
	for _, id := range s.sorted[coll] {
		want, err := mirrorDoc(s, coll, id)
		if err != nil {
			return err
		}
		got, err := s.FindID(coll, id)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("FindID(%s/%s) = %v, the slot holds %v", coll, id, got, want)
		}
	}
	return nil
}

// TestUpdateLockContendedInvalidatesTable: an Update whose record was
// appended but whose WrLock failed leaves the record in the log, and the
// next successful commit executes it. The table must not keep the
// pre-Update document: FindID returns what the slot holds before and after.
func TestUpdateLockContendedInvalidatesTable(t *testing.T) {
	cfg := smallConfig()
	k, s, g := testStore(t, cfg)
	squatter, err := txn.New(g, txn.Config{LogSize: cfg.LogSize, DataSize: cfg.DataSize, LockToken: 2})
	if err != nil {
		t.Fatal(err)
	}
	run(t, k, func(f *sim.Fiber) {
		for _, id := range []string{"a", "b"} {
			if err := s.Insert(f, "c", Doc{"_id": id, "v": "old"}); err != nil {
				t.Error(err)
				return
			}
		}
		if err := squatter.WrLock(f); err != nil {
			t.Errorf("second token's lock: %v", err)
			return
		}
		if err := s.Update(f, "c", "a", Doc{"v": "new"}); !errors.Is(err, txn.ErrLockContended) {
			t.Errorf("update under a held lock = %v, want ErrLockContended", err)
			return
		}
		if s.docs[s.dir["c"]["a"]] != nil {
			t.Error("a failed Update left its table entry in place")
		}
		if err := tableAgrees(s, "c"); err != nil {
			t.Errorf("after the failed Update: %v", err)
		}
		if err := squatter.WrUnlock(f); err != nil {
			t.Errorf("second token's unlock: %v", err)
			return
		}
		// This commit's drain executes a's pending record first.
		if err := s.Update(f, "c", "b", Doc{"v": "next"}); err != nil {
			t.Errorf("update after the release: %v", err)
			return
		}
		if err := tableAgrees(s, "c"); err != nil {
			t.Errorf("after the next commit: %v", err)
		}
		if doc, err := s.FindID("c", "a"); err != nil || doc["v"] != "new" {
			t.Errorf("a = %v (%v): the appended record never executed", doc, err)
		}
	})
}

// TestFindIDReturnsView: FindID hands out the table entry itself, which
// agrees with the slot. A caller that keeps a document clones it: the
// clone outlives later Updates of that document and of others, which reuse
// the entries they replace.
func TestFindIDReturnsView(t *testing.T) {
	k, s, _ := testStore(t, smallConfig())
	run(t, k, func(f *sim.Fiber) {
		for _, id := range []string{"d", "e"} {
			if err := s.Insert(f, "c", Doc{"_id": id, "v": "kept"}); err != nil {
				t.Error(err)
				return
			}
		}
		view, err := s.FindID("c", "d")
		if err != nil {
			t.Error(err)
			return
		}
		if reflect.ValueOf(view).UnsafePointer() != reflect.ValueOf(s.docs[s.dir["c"]["d"]]).UnsafePointer() {
			t.Error("FindID returned a copy of the table entry")
		}
		if err := tableAgrees(s, "c"); err != nil {
			t.Error(err)
		}
		kept := maps.Clone(view)
		for i, id := range []string{"d", "e", "d", "e"} {
			if err := s.Update(f, "c", id, Doc{"v": fmt.Sprint(i), "n": float64(i)}); err != nil {
				t.Error(err)
				return
			}
		}
		if want := (Doc{"_id": "d", "_coll": "c", "v": "kept"}); !reflect.DeepEqual(kept, want) {
			t.Errorf("clone of a view after later Updates = %v, want %v", kept, want)
		}
		if err := tableAgrees(s, "c"); err != nil {
			t.Errorf("after the Updates: %v", err)
		}
	})
}

// warmUpdates inserts one document shaped like the benchmarks' (an _id
// and one 900-byte field) and returns an Update of that field, after
// driving it for 200 virtual ms: a dozen turns of the kernel's timing
// wheel, so its event pool and heaps have peaked, and many log wraps.
func warmUpdates(f *sim.Fiber, s *Store, fail func(error)) func() {
	if err := s.Insert(f, "c", Doc{"_id": "d0", "field0": strings.Repeat("x", 900)}); err != nil {
		fail(err)
	}
	vals := []Doc{{"field0": strings.Repeat("a", 900)}, {"field0": strings.Repeat("b", 900)}}
	i := 0
	update := func() {
		if err := s.Update(f, "c", "d0", vals[i%len(vals)]); err != nil {
			fail(err)
		}
		i++
	}
	for f.Now() < sim.Time(200*sim.Millisecond) {
		update()
	}
	return update
}

// TestFindIDUpdateAllocs pins what a flat document costs once the store is
// warm: nothing. FindID returns the table entry, Update merges into the
// spare entry and encodes it with appendFlat into the store's image
// buffer, and Delete commits the store's one zero header.
func TestFindIDUpdateAllocs(t *testing.T) {
	k, s, _ := testStore(t, smallConfig())
	run(t, k, func(f *sim.Fiber) {
		update := warmUpdates(f, s, func(err error) { t.Error(err) })
		if s.docs[s.dir["c"]["d0"]] == nil {
			t.Error("flat document not in the table")
			return
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = s.FindID("c", "d0") }); allocs != 0 {
			t.Errorf("FindID: %v allocations, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(100, update); allocs != 0 {
			t.Errorf("Update: %v allocations, want 0", allocs)
		}
		ids := make([]string, 101) // AllocsPerRun's warm-up call and its 100 runs
		for i := range ids {
			ids[i] = fmt.Sprintf("e%d", i)
			if err := s.Insert(f, "c", Doc{"_id": ids[i]}); err != nil {
				t.Error(err)
				return
			}
		}
		n := 0
		del := func() {
			if err := s.Delete(f, "c", ids[n]); err != nil {
				t.Error(err)
			}
			n++
		}
		if allocs := testing.AllocsPerRun(100, del); allocs != 0 {
			t.Errorf("Delete: %v allocations, want 0", allocs)
		}
	})
}

// BenchmarkFindID is one read of a flat document from the table.
func BenchmarkFindID(b *testing.B) {
	k, s, _ := testStore(b, smallConfig())
	b.ReportAllocs()
	run(b, k, func(f *sim.Fiber) {
		warmUpdates(f, s, func(err error) { b.Error(err) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.FindID("c", "d0"); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
	})
}

// BenchmarkUpdate is one 900-byte field Update over a 3-replica group;
// allocs/op is the store's steady-state garbage.
func BenchmarkUpdate(b *testing.B) {
	k, s, _ := testStore(b, smallConfig())
	b.ReportAllocs()
	run(b, k, func(f *sim.Fiber) {
		update := warmUpdates(f, s, func(err error) { b.Error(err) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			update()
		}
		b.StopTimer()
	})
}
