package docstore

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"hyperloop/internal/sim"
)

// TestDocstoreAgainstModelProperty replays random insert/update/delete
// programs against the replicated store and an in-memory model map, then
// checks they agree — including after a crash + recovery in the middle.
// Field values are strings or, to keep documents off the decoded table,
// ints (which read back as float64), nested maps and invalid UTF-8; after
// every op and after the recovery, FindID must return exactly what the
// client's slot decodes to.
func TestDocstoreAgainstModelProperty(t *testing.T) {
	type op struct {
		Kind  uint8
		ID    uint8
		Field uint8
		Crash bool
	}
	f := func(ops []op) bool {
		if len(ops) > 20 {
			ops = ops[:20]
		}
		cfg := smallConfig()
		k, s, g := testStore(t, cfg)
		model := make(map[string]any) // id → field value as read back
		ok := true
		apply := func(f *sim.Fiber, o op) bool {
			id := fmt.Sprintf("doc%02d", o.ID%16)
			// val is what the op writes, back what a read returns.
			str := fmt.Sprintf("v%d", o.Field)
			var val, back any = str, str
			switch o.Field % 5 {
			case 1:
				val, back = int(o.Field), float64(o.Field)
			case 2:
				val, back = Doc{"n": int(o.Field)}, map[string]any{"n": float64(o.Field)}
			case 3:
				val, back = "\xff"+str, "\uFFFD"+str
			}
			switch o.Kind % 3 {
			case 0: // insert (or no-op if exists)
				err := s.Insert(f, "c", Doc{"_id": id, "f": val})
				if _, exists := model[id]; exists {
					if !errors.Is(err, ErrExists) {
						return false
					}
				} else {
					if err != nil {
						return false
					}
					model[id] = back
				}
			case 1: // update (or not-found)
				err := s.Update(f, "c", id, Doc{"f": val})
				if _, exists := model[id]; exists {
					if err != nil {
						return false
					}
					model[id] = back
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			case 2: // delete (or not-found)
				err := s.Delete(f, "c", id)
				if _, exists := model[id]; exists {
					if err != nil {
						return false
					}
					delete(model, id)
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			}
			return tableAgrees(s, "c") == nil
		}
		k.Spawn("prog", func(f *sim.Fiber) {
			for i, o := range ops {
				if !apply(f, o) {
					ok = false
					return
				}
				if o.Crash && i == len(ops)/2 {
					// Power-fail the client mid-program and recover.
					g.ClientNIC().Memory().Crash()
					if err := s.Recover(f); err != nil || tableAgrees(s, "c") != nil {
						ok = false
						return
					}
				}
			}
		})
		if err := k.Run(); err != nil || !ok {
			return false
		}
		// Final agreement.
		if s.Count("c") != len(model) {
			return false
		}
		for id, val := range model {
			doc, err := s.FindID("c", id)
			if err != nil || !reflect.DeepEqual(doc["f"], val) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
