package hyperloop

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"hyperloop/internal/nvm"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

const (
	testMirror = 64 * 1024
	testDev    = 1 << 20
)

// testGroup spins up a kernel, fabric, client and nReplicas replicas.
func testGroup(t *testing.T, nReplicas int, p protocol.Params) (*sim.Kernel, *Group) {
	t.Helper()
	k := sim.NewKernel(42)
	fab := rdma.NewFabric(k, rdma.DefaultConfig())
	client, err := fab.AddNIC("client", nvm.NewDevice("client", testDev))
	if err != nil {
		t.Fatal(err)
	}
	var reps []*rdma.NIC
	for i := 0; i < nReplicas; i++ {
		host := string(rune('a' + i))
		nic, err := fab.AddNIC(host, nvm.NewDevice(host, testDev))
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, nic)
	}
	g, err := Setup(protocol.Env{Fabric: fab, Client: client, Replicas: reps}, p)
	if err != nil {
		t.Fatal(err)
	}
	return k, g
}

// runFiber drives fn as a fiber and the kernel to completion.
func runFiber(t *testing.T, k *sim.Kernel, fn func(f *sim.Fiber)) {
	t.Helper()
	k.Spawn("test", fn)
	if err := k.Run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
}

func TestGWriteReplicatesToAll(t *testing.T) {
	k, g := testGroup(t, 3, protocol.Params{MirrorSize: testMirror})
	data := []byte("chain-replicated payload 12345")
	runFiber(t, k, func(f *sim.Fiber) {
		if err := g.WriteLocal(100, data); err != nil {
			t.Error(err)
			return
		}
		if err := g.Write(f, 100, len(data), false); err != nil {
			t.Errorf("gWRITE: %v", err)
		}
	})
	for i := 0; i < g.GroupSize(); i++ {
		got := make([]byte, len(data))
		if err := g.ReplicaNIC(i).Memory().Read(100, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("replica %d mirror = %q, want %q", i, got, data)
		}
	}
	issued, completed := g.Stats()
	if issued != 1 || completed != 1 {
		t.Fatalf("stats = %d issued, %d completed", issued, completed)
	}
}

func TestGWriteLatencyIsMicroseconds(t *testing.T) {
	k, g := testGroup(t, 3, protocol.Params{MirrorSize: testMirror})
	var lat sim.Duration
	runFiber(t, k, func(f *sim.Fiber) {
		_ = g.WriteLocal(0, make([]byte, 1024))
		start := f.Now()
		if err := g.Write(f, 0, 1024, true); err != nil {
			t.Errorf("gWRITE: %v", err)
		}
		lat = f.Now().Sub(start)
	})
	if lat <= 0 || lat > 100*sim.Microsecond {
		t.Fatalf("durable 1KB gWRITE over 3 replicas took %v, want µs-scale", lat)
	}
}

func TestDurableGWriteSurvivesCrash(t *testing.T) {
	k, g := testGroup(t, 3, protocol.Params{MirrorSize: testMirror})
	durableData := []byte("must survive power loss")
	volatileData := []byte("may vanish on power loss")
	runFiber(t, k, func(f *sim.Fiber) {
		_ = g.WriteLocal(0, durableData)
		if err := g.Write(f, 0, len(durableData), true); err != nil {
			t.Errorf("durable write: %v", err)
		}
		_ = g.WriteLocal(4096, volatileData)
		if err := g.Write(f, 4096, len(volatileData), false); err != nil {
			t.Errorf("volatile write: %v", err)
		}
	})
	for i := 0; i < g.GroupSize(); i++ {
		mem := g.ReplicaNIC(i).Memory()
		mem.Crash()
		got := make([]byte, len(durableData))
		_ = mem.Read(0, got)
		if !bytes.Equal(got, durableData) {
			t.Fatalf("replica %d lost durable data: %q", i, got)
		}
		gotV := make([]byte, len(volatileData))
		_ = mem.Read(4096, gotV)
		if bytes.Equal(gotV, volatileData) {
			t.Fatalf("replica %d kept non-durable data across crash — flush semantics broken", i)
		}
	}
}

func TestManySequentialWritesWrapRing(t *testing.T) {
	k, g := testGroup(t, 3, protocol.Params{MirrorSize: testMirror, Depth: 8})
	const ops = 50 // several ring wraps at depth 8
	runFiber(t, k, func(f *sim.Fiber) {
		for i := 0; i < ops; i++ {
			payload := []byte{byte(i), byte(i >> 8), 0xCC, byte(i)}
			off := (i % 16) * 256
			_ = g.WriteLocal(off, payload)
			if err := g.Write(f, off, len(payload), false); err != nil {
				t.Errorf("op %d: %v", i, err)
				return
			}
		}
	})
	issued, completed := g.Stats()
	if issued != ops || completed != ops {
		t.Fatalf("stats = %d/%d, want %d", issued, completed, ops)
	}
	// Spot-check the final op's payload everywhere.
	want := []byte{byte(ops - 1), byte((ops - 1) >> 8), 0xCC, byte(ops - 1)}
	for i := 0; i < g.GroupSize(); i++ {
		got := make([]byte, 4)
		_ = g.ReplicaNIC(i).Memory().Read(((ops-1)%16)*256, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("replica %d final op = %v, want %v", i, got, want)
		}
	}
}

func TestPipelinedAsyncWrites(t *testing.T) {
	k, g := testGroup(t, 3, protocol.Params{MirrorSize: testMirror, Depth: 32})
	const window = 16
	runFiber(t, k, func(f *sim.Fiber) {
		sigs := make([]*sim.Signal, 0, window)
		for i := 0; i < window; i++ {
			_ = g.WriteLocal(i*512, []byte{byte(i + 1)})
			sig, err := g.WriteAsync(i*512, 1, false)
			if err != nil {
				t.Errorf("async %d: %v", i, err)
				return
			}
			sigs = append(sigs, sig)
		}
		if err := f.AwaitAll(sigs...); err != nil {
			t.Errorf("await: %v", err)
		}
	})
	for i := 0; i < window; i++ {
		b, _ := g.ReplicaNIC(2).Memory().Slice(i*512, 1)
		if b[0] != byte(i+1) {
			t.Fatalf("pipelined op %d missing at tail", i)
		}
	}
}

func TestWindowLimitEnforced(t *testing.T) {
	k, g := testGroup(t, 1, protocol.Params{MirrorSize: testMirror, Depth: 4})
	runFiber(t, k, func(f *sim.Fiber) {
		var last *sim.Signal
		for i := 0; ; i++ {
			sig, err := g.WriteAsync(0, 1, false)
			if errors.Is(err, protocol.ErrTooManyInFlight) {
				if i < 2 {
					t.Errorf("window closed after only %d ops", i)
				}
				break
			}
			if err != nil {
				t.Errorf("unexpected err: %v", err)
				break
			}
			last = sig
			if i > 100 {
				t.Error("window never closed")
				break
			}
		}
		if last != nil {
			_ = f.Await(last)
		}
	})
}

func TestGCASAcquiresLockOnAllReplicas(t *testing.T) {
	k, g := testGroup(t, 3, protocol.Params{MirrorSize: testMirror})
	const lockOff = 512
	exec := []bool{true, true, true}
	runFiber(t, k, func(f *sim.Fiber) {
		// Acquire: 0 → 7 everywhere.
		res, err := g.CAS(f, lockOff, 0, 7, exec)
		if err != nil {
			t.Errorf("gCAS: %v", err)
			return
		}
		for i, v := range res {
			if v != 0 {
				t.Errorf("replica %d original = %d, want 0", i, v)
			}
		}
		// Second acquire must fail everywhere and report holder 7.
		res, err = g.CAS(f, lockOff, 0, 9, exec)
		if err != nil {
			t.Errorf("gCAS 2: %v", err)
			return
		}
		for i, v := range res {
			if v != 7 {
				t.Errorf("replica %d original = %d, want 7 (lock held)", i, v)
			}
		}
	})
	// Lock word must be 7 (second CAS failed) on every replica.
	for i := 0; i < 3; i++ {
		b, _ := g.ReplicaNIC(i).Memory().Slice(lockOff, 8)
		if b[0] != 7 {
			t.Fatalf("replica %d lock word = %d, want 7", i, b[0])
		}
	}
}

func TestGCASSelectiveExecution(t *testing.T) {
	// The undo path: execute only on replicas 0 and 2, skip 1.
	k, g := testGroup(t, 3, protocol.Params{MirrorSize: testMirror})
	const off = 1024
	runFiber(t, k, func(f *sim.Fiber) {
		if _, err := g.CAS(f, off, 0, 5, []bool{true, false, true}); err != nil {
			t.Errorf("gCAS: %v", err)
		}
	})
	for i, want := range []byte{5, 0, 5} {
		b, _ := g.ReplicaNIC(i).Memory().Slice(off, 8)
		if b[0] != want {
			t.Fatalf("replica %d word = %d, want %d (selective execution broken)", i, b[0], want)
		}
	}
}

func TestGCASExecMapValidation(t *testing.T) {
	k, g := testGroup(t, 3, protocol.Params{MirrorSize: testMirror})
	runFiber(t, k, func(f *sim.Fiber) {
		if _, err := g.CAS(f, 0, 0, 1, []bool{true}); !errors.Is(err, protocol.ErrBadArgument) {
			t.Errorf("short exec map: err = %v", err)
		}
	})
}

func TestGMemcpyExecutesLogOnAllMembers(t *testing.T) {
	k, g := testGroup(t, 3, protocol.Params{MirrorSize: testMirror})
	record := []byte("log record: set X=42")
	const logOff, dataOff = 0, 8192
	runFiber(t, k, func(f *sim.Fiber) {
		// Replicate the log record first (gWRITE), then execute it
		// everywhere (gMEMCPY) — the paper's ExecuteAndAdvance step.
		_ = g.WriteLocal(logOff, record)
		if err := g.Write(f, logOff, len(record), true); err != nil {
			t.Errorf("append: %v", err)
			return
		}
		if err := g.Memcpy(f, logOff, dataOff, len(record), true); err != nil {
			t.Errorf("gMEMCPY: %v", err)
		}
	})
	// Client and every replica must now have the record in the data area.
	check := func(name string, mem *nvm.Device) {
		got := make([]byte, len(record))
		_ = mem.Read(dataOff, got)
		if !bytes.Equal(got, record) {
			t.Fatalf("%s data area = %q, want %q", name, got, record)
		}
	}
	check("client", g.ClientNIC().Memory())
	for i := 0; i < 3; i++ {
		check("replica", g.ReplicaNIC(i).Memory())
	}
}

func TestGFlushMakesPriorWriteDurable(t *testing.T) {
	k, g := testGroup(t, 2, protocol.Params{MirrorSize: testMirror})
	data := []byte("write now, flush later")
	runFiber(t, k, func(f *sim.Fiber) {
		_ = g.WriteLocal(0, data)
		if err := g.Write(f, 0, len(data), false); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := g.Flush(f, 0, len(data)); err != nil {
			t.Errorf("gFLUSH: %v", err)
		}
	})
	for i := 0; i < 2; i++ {
		mem := g.ReplicaNIC(i).Memory()
		mem.Crash()
		got := make([]byte, len(data))
		_ = mem.Read(0, got)
		if !bytes.Equal(got, data) {
			t.Fatalf("replica %d: standalone gFLUSH did not persist data", i)
		}
	}
}

func TestOpTimeoutOnDeadReplica(t *testing.T) {
	k, g := testGroup(t, 3, protocol.Params{MirrorSize: testMirror, OpTimeout: 500 * sim.Microsecond})
	runFiber(t, k, func(f *sim.Fiber) {
		g.ReplicaNIC(1).SetDown(true)
		_ = g.WriteLocal(0, []byte{1})
		err := g.Write(f, 0, 1, false)
		if !errors.Is(err, protocol.ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		if g.InFlight() != 0 {
			t.Errorf("inflight = %d after timeout", g.InFlight())
		}
	})
}

func TestRetryBoundedOnPermanentCrash(t *testing.T) {
	// A permanently dead mid-chain replica must make a retried Write fail
	// in bounded time — exactly MaxRetries re-issues, never a hang. (The
	// pre-armed WQE chains die with the replica, so retries cannot succeed
	// without group re-setup; what they must do is terminate.)
	k, g := testGroup(t, 3, protocol.Params{
		MirrorSize: testMirror, OpTimeout: 500 * sim.Microsecond,
		MaxRetries: 2, RetryBackoff: 100 * sim.Microsecond,
	})
	runFiber(t, k, func(f *sim.Fiber) {
		g.ReplicaNIC(1).SetDown(true)
		_ = g.WriteLocal(0, []byte{1})
		start := f.Now()
		err := g.Write(f, 0, 1, false)
		if !errors.Is(err, protocol.ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		if got := g.Retried(); got != 2 {
			t.Errorf("Retried() = %d, want 2", got)
		}
		// 3 attempts x 500µs timeout + 100µs + 200µs backoff, plus slack.
		if el := f.Now().Sub(start); el > 3*sim.Millisecond {
			t.Errorf("write took %v, want bounded by retries", el)
		}
		if g.InFlight() != 0 {
			t.Errorf("inflight = %d after retries exhausted", g.InFlight())
		}
	})
	if n := k.LiveFibers(); n != 0 {
		t.Errorf("%d fibers still live", n)
	}
}

func TestCloseFailsInFlightOps(t *testing.T) {
	// Close fires ErrClosed into every awaiting fiber; nothing hangs on an
	// operation the torn-down datapath will never complete.
	k, g := testGroup(t, 2, protocol.Params{MirrorSize: testMirror})
	runFiber(t, k, func(f *sim.Fiber) {
		g.ReplicaNIC(0).SetDown(true) // freeze the chain so the op stays in flight
		sig, err := g.WriteAsync(0, 64, false)
		if err != nil {
			t.Fatal(err)
		}
		g.Close()
		if err := f.Await(sig); !errors.Is(err, protocol.ErrClosed) {
			t.Errorf("await = %v, want ErrClosed", err)
		}
		if g.InFlight() != 0 {
			t.Errorf("inflight = %d after Close", g.InFlight())
		}
	})
}

func TestBadRangeRejected(t *testing.T) {
	k, g := testGroup(t, 2, protocol.Params{MirrorSize: testMirror})
	runFiber(t, k, func(f *sim.Fiber) {
		if _, err := g.WriteAsync(testMirror-1, 2, false); !errors.Is(err, protocol.ErrBadArgument) {
			t.Errorf("overflow write err = %v", err)
		}
		if _, err := g.MemcpyAsync(0, testMirror-1, 8, false); !errors.Is(err, protocol.ErrBadArgument) {
			t.Errorf("overflow memcpy err = %v", err)
		}
		if err := g.WriteLocal(-1, []byte{1}); !errors.Is(err, protocol.ErrBadArgument) {
			t.Errorf("negative local write err = %v", err)
		}
		if _, err := g.ViewLocal(testMirror, 1); !errors.Is(err, protocol.ErrBadArgument) {
			t.Errorf("local read err = %v", err)
		}
	})
}

func TestGroupSizesOneThroughFive(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5} {
		n := n
		k, g := testGroup(t, n, protocol.Params{MirrorSize: testMirror})
		data := []byte("size sweep payload")
		runFiber(t, k, func(f *sim.Fiber) {
			_ = g.WriteLocal(0, data)
			if err := g.Write(f, 0, len(data), true); err != nil {
				t.Errorf("G=%d: %v", n, err)
			}
		})
		for i := 0; i < n; i++ {
			got := make([]byte, len(data))
			_ = g.ReplicaNIC(i).Memory().Read(0, got)
			if !bytes.Equal(got, data) {
				t.Fatalf("G=%d replica %d missing data", n, i)
			}
		}
	}
}

// TestMirrorConsistencyProperty replays random op sequences and checks the
// fundamental invariant: after all operations complete, every replica's
// mirror equals the client's mirror.
func TestMirrorConsistencyProperty(t *testing.T) {
	type step struct {
		Kind    uint8
		Off     uint16
		Size    uint8
		Payload uint8
	}
	f := func(steps []step) bool {
		if len(steps) > 25 {
			steps = steps[:25]
		}
		k, g := testGroup(t, 3, protocol.Params{MirrorSize: testMirror})
		ok := true
		runFiber(t, k, func(f *sim.Fiber) {
			for _, s := range steps {
				off := int(s.Off) % (testMirror - 300)
				size := int(s.Size)%255 + 1
				switch s.Kind % 3 {
				case 0: // gWRITE
					payload := bytes.Repeat([]byte{s.Payload}, size)
					if err := g.WriteLocal(off, payload); err != nil {
						ok = false
						return
					}
					if err := g.Write(f, off, size, s.Payload%2 == 0); err != nil {
						ok = false
						return
					}
				case 1: // gMEMCPY within mirror
					dst := (off + 300) % (testMirror - 300)
					if err := g.Memcpy(f, off, dst, size, false); err != nil {
						ok = false
						return
					}
				case 2: // gCAS on an aligned word
					word := off &^ 7
					if _, err := g.CAS(f, word, uint64(s.Payload), uint64(s.Payload)+1,
						[]bool{true, true, true}); err != nil {
						ok = false
						return
					}
				}
			}
		})
		if !ok {
			return false
		}
		clientImg := make([]byte, testMirror)
		if err := g.ClientNIC().Memory().Read(0, clientImg); err != nil {
			return false
		}
		for i := 0; i < 3; i++ {
			img := make([]byte, testMirror)
			if err := g.ReplicaNIC(i).Memory().Read(0, img); err != nil {
				return false
			}
			if !bytes.Equal(img, clientImg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestCASConsistencyAcrossClientAndReplicas: the client must apply the CAS
// locally too for the mirror invariant to hold — verify the group leaves
// replicas consistent with each other even though the client does not CAS
// its own copy (locks live on replicas; see txn package).
func TestReplicasAgreeAfterContendedCAS(t *testing.T) {
	k, g := testGroup(t, 3, protocol.Params{MirrorSize: testMirror})
	runFiber(t, k, func(f *sim.Fiber) {
		for i := uint64(0); i < 10; i++ {
			if _, err := g.CAS(f, 0, i, i+1, []bool{true, true, true}); err != nil {
				t.Errorf("cas %d: %v", i, err)
				return
			}
		}
	})
	var want []byte
	for i := 0; i < 3; i++ {
		b, _ := g.ReplicaNIC(i).Memory().Slice(0, 8)
		if want == nil {
			want = append([]byte(nil), b...)
		} else if !bytes.Equal(b, want) {
			t.Fatalf("replicas disagree on lock word: %v vs %v", b, want)
		}
	}
	if want[0] != 10 {
		t.Fatalf("lock word = %d, want 10", want[0])
	}
}
