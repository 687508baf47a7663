package hyperloop

import (
	"bytes"
	"fmt"
	"testing"

	"hyperloop/internal/protocol"
	"hyperloop/internal/sim"
)

// TestConcurrentClientFibers drives the group from several fibers at once
// (a multi-threaded client process, §5: "a single multi-threaded process
// that waits for requests from applications and issues them into the chain
// concurrently").
func TestConcurrentClientFibers(t *testing.T) {
	k, g := testGroup(t, 3, protocol.Params{MirrorSize: testMirror, Depth: 64})
	const fibers = 4
	const opsPerFiber = 15
	done := 0
	for fi := 0; fi < fibers; fi++ {
		fi := fi
		k.Spawn(fmt.Sprintf("client-%d", fi), func(f *sim.Fiber) {
			defer func() { done++ }()
			base := fi * 16384
			for i := 0; i < opsPerFiber; i++ {
				payload := []byte(fmt.Sprintf("f%d-op%02d", fi, i))
				off := base + i*256
				if err := g.WriteLocal(off, payload); err != nil {
					t.Errorf("fiber %d: %v", fi, err)
					return
				}
				if err := g.Write(f, off, len(payload), i%2 == 0); err != nil {
					t.Errorf("fiber %d op %d: %v", fi, i, err)
					return
				}
				// Interleave other primitive kinds.
				switch i % 3 {
				case 0:
					if err := g.Memcpy(f, off, base+8192+i*64, 8, false); err != nil {
						t.Errorf("fiber %d memcpy: %v", fi, err)
						return
					}
				case 1:
					if err := g.Flush(f, off, len(payload)); err != nil {
						t.Errorf("fiber %d flush: %v", fi, err)
						return
					}
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != fibers {
		t.Fatalf("only %d/%d fibers completed", done, fibers)
	}
	// Every fiber's writes must be present on every replica.
	for fi := 0; fi < fibers; fi++ {
		for i := 0; i < opsPerFiber; i++ {
			want := []byte(fmt.Sprintf("f%d-op%02d", fi, i))
			for r := 0; r < 3; r++ {
				got := make([]byte, len(want))
				_ = g.ReplicaNIC(r).Memory().Read(fi*16384+i*256, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("replica %d missing fiber %d op %d: %q", r, fi, i, got)
				}
			}
		}
	}
	issued, completed := g.Stats()
	if issued != completed {
		t.Fatalf("issued %d != completed %d", issued, completed)
	}
}

// TestThroughputScalesWithPipelining verifies that windowed async writes
// deliver materially better throughput than strictly serial ones — the
// point of pre-posting a deep chain window.
func TestThroughputScalesWithPipelining(t *testing.T) {
	measure := func(window int) sim.Duration {
		k, g := testGroup(t, 3, protocol.Params{MirrorSize: testMirror, Depth: 64})
		const ops = 100
		var elapsed sim.Duration
		runFiber(t, k, func(f *sim.Fiber) {
			start := f.Now()
			var sigs []*sim.Signal
			for i := 0; i < ops; i++ {
				sig, err := g.WriteAsync((i%32)*1024, 512, true)
				if err != nil {
					t.Errorf("op %d: %v", i, err)
					return
				}
				sigs = append(sigs, sig)
				if len(sigs) >= window {
					if err := f.Await(sigs[0]); err != nil {
						t.Errorf("await: %v", err)
						return
					}
					sigs = sigs[1:]
				}
			}
			if err := f.AwaitAll(sigs...); err != nil {
				t.Errorf("drain: %v", err)
				return
			}
			elapsed = f.Now().Sub(start)
		})
		return elapsed
	}
	serial := measure(1)
	pipelined := measure(16)
	if pipelined*3 >= serial {
		t.Fatalf("pipelining ineffective: serial %v vs window-16 %v", serial, pipelined)
	}
}
