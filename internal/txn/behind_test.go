package txn

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// TestAppendBehind: AppendData and AppendTruncate return once the record
// and tail pointer are acknowledged, with the op behind them still in
// flight and its signal in the caller's hands; once it fires, every member
// holds its effect. The data comes from the chunk source only when it is
// posted: a full log, a bad range or a failed step asks for nothing. With a
// window of two the op behind waits for the step's oldest op and posts.
func TestAppendBehind(t *testing.T) {
	for _, depth := range []int{32, 4} {
		t.Run(fmt.Sprintf("depth %d", depth), func(t *testing.T) {
			rig := newStepRig(t, stepRigConfig{replicas: 3, dataSize: 64 << 10, depth: depth})
			rec := []wal.Entry{{Off: 0, Data: bytes.Repeat([]byte{1}, 600)}}
			piece := bytes.Repeat([]byte{0x7E}, 16<<10)
			asked := 0
			chunk := func(pos, n int) []byte { asked++; return piece[pos : pos+n] }
			rig.run(t, func(f *sim.Fiber) {
				_, sig, err := rig.st.AppendData(f, rec, 32<<10, len(piece), chunk)
				switch {
				case err != nil || sig == nil:
					t.Errorf("AppendData = %v, %v", sig, err)
					return
				case asked != 1:
					t.Errorf("chunk asked for %d times, want once", asked)
				case sig.Fired() || rig.g.InFlight() != 1:
					t.Errorf("the step waited for the piece: fired %v, %d in flight", sig.Fired(), rig.g.InFlight())
				}
				if err := f.Await(sig); err != nil {
					t.Errorf("piece: %v", err)
				}
				head, _ := rig.st.Head()
				tail, _ := rig.st.Tail()
				_, sig, err = rig.st.AppendTruncate(f, rec, tail)
				if err != nil || sig == nil {
					t.Errorf("AppendTruncate = %v, %v", sig, err)
					return
				}
				if got, _ := rig.st.Head(); got != tail || got == head {
					t.Errorf("client head = %d, want %d at once", got, tail)
				}
				if err := f.Await(sig); err != nil {
					t.Errorf("head move: %v", err)
				}
				err = rig.auditImages(f, -1, "after both", func(image *Store) error {
					if h, _ := image.Head(); h != tail {
						return fmt.Errorf("head = %d, want %d", h, tail)
					}
					return expectData(image, 32<<10, piece)
				})
				if err != nil {
					t.Error(err)
				}

				// Nothing is asked for when the Append does not go out.
				asked = 0
				if _, sig, err := rig.st.AppendData(f, rec, 60<<10, len(piece), chunk); !errors.Is(err, ErrBadArgument) || sig != nil {
					t.Errorf("out of range: %v, %v; want ErrBadArgument", sig, err)
				}
				for {
					_, sig, err := rig.st.AppendData(f, rec, 0, 8, chunk)
					if errors.Is(err, ErrLogFull) {
						if sig != nil {
							t.Error("a full log posted the op behind")
						}
						break
					}
					if err != nil {
						t.Errorf("filling the log: %v", err)
						return
					}
					if err := f.Await(sig); err != nil {
						t.Error(err)
					}
				}
				n := asked
				_, _, _ = rig.st.AppendData(f, rec, 0, 8, chunk)
				if asked != n {
					t.Error("a full log asked the chunk source")
				}
			})
		})
	}
}

// TestAppendBehindPostFails: when the op behind cannot be posted, the
// Append still succeeds and returns no signal; a head move that did not go
// out leaves the client's head where it was.
func TestAppendBehindPostFails(t *testing.T) {
	k := sim.NewKernel(3)
	m := newMemRep(MirrorSizeFor(testLog, testData))
	st, err := New(m, Config{LogSize: testLog, DataSize: testData})
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	m.fail = func(op string) error {
		if op != "write" {
			return nil
		}
		if writes++; writes%3 == 0 { // record, tail pointer, then the op behind
			return errInjected
		}
		return nil
	}
	rec := []wal.Entry{{Off: 0, Data: []byte("x")}}
	runMem(t, k, func(f *sim.Fiber) {
		if _, sig, err := st.AppendData(f, rec, 0, 4, func(int, int) []byte { return []byte("data") }); err != nil || sig != nil {
			t.Errorf("AppendData = %v, %v; want the Append and no signal", sig, err)
		}
		head, _ := st.Head()
		tail, _ := st.Tail()
		if _, sig, err := st.AppendTruncate(f, rec, tail); err != nil || sig != nil {
			t.Errorf("AppendTruncate = %v, %v; want the Append and no signal", sig, err)
		}
		if got, _ := st.Head(); got != head {
			t.Errorf("client head = %d after a move that did not go out, want %d", got, head)
		}
	})
}
