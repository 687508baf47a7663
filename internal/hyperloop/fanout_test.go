package hyperloop

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hyperloop/internal/nvm"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

func testFanout(t *testing.T, nMembers int, p protocol.Params) (*sim.Kernel, *FanoutGroup) {
	t.Helper()
	k := sim.NewKernel(17)
	fab := rdma.NewFabric(k, rdma.DefaultConfig())
	client, err := fab.AddNIC("client", nvm.NewDevice("client", testDev))
	if err != nil {
		t.Fatal(err)
	}
	var members []*rdma.NIC
	for i := 0; i < nMembers; i++ {
		host := fmt.Sprintf("m%d", i)
		nic, err := fab.AddNIC(host, nvm.NewDevice(host, testDev))
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, nic)
	}
	g, err := SetupFanout(protocol.Env{Fabric: fab, Client: client, Replicas: members}, p)
	if err != nil {
		t.Fatal(err)
	}
	return k, g
}

func TestFanoutWriteReplicatesToAll(t *testing.T) {
	k, g := testFanout(t, 3, protocol.Params{MirrorSize: testMirror})
	data := []byte("fan-out replicated payload")
	runFiber(t, k, func(f *sim.Fiber) {
		if err := g.WriteLocal(128, data); err != nil {
			t.Error(err)
			return
		}
		if err := g.Write(f, 128, len(data), false); err != nil {
			t.Errorf("fan-out write: %v", err)
		}
	})
	for i := 0; i < g.GroupSize(); i++ {
		got := make([]byte, len(data))
		_ = g.ReplicaNIC(i).Memory().Read(128, got)
		if !bytes.Equal(got, data) {
			t.Fatalf("member %d mirror = %q", i, got)
		}
	}
	issued, completed := g.Stats()
	if issued != 1 || completed != 1 {
		t.Fatalf("stats = %d/%d", issued, completed)
	}
}

func TestFanoutDurableWriteSurvivesCrash(t *testing.T) {
	k, g := testFanout(t, 3, protocol.Params{MirrorSize: testMirror})
	data := []byte("durable fan-out")
	runFiber(t, k, func(f *sim.Fiber) {
		_ = g.WriteLocal(0, data)
		if err := g.Write(f, 0, len(data), true); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	for i := 0; i < g.GroupSize(); i++ {
		mem := g.ReplicaNIC(i).Memory()
		mem.Crash()
		got := make([]byte, len(data))
		_ = mem.Read(0, got)
		if !bytes.Equal(got, data) {
			t.Fatalf("member %d lost durable data", i)
		}
	}
}

func TestFanoutCASWithResults(t *testing.T) {
	k, g := testFanout(t, 3, protocol.Params{MirrorSize: testMirror})
	runFiber(t, k, func(f *sim.Fiber) {
		res, err := g.CAS(f, 512, 0, 9, []bool{true, true, true})
		if err != nil {
			t.Errorf("cas: %v", err)
			return
		}
		if len(res) != 3 {
			t.Errorf("results = %v", res)
			return
		}
		for i, v := range res {
			if v != 0 {
				t.Errorf("member %d original = %d", i, v)
			}
		}
		// Second CAS must observe 9 everywhere.
		res, err = g.CAS(f, 512, 0, 1, []bool{true, true, true})
		if err != nil {
			t.Errorf("cas2: %v", err)
			return
		}
		for i, v := range res {
			if v != 9 {
				t.Errorf("member %d original = %d, want 9", i, v)
			}
		}
	})
}

func TestFanoutCASSelective(t *testing.T) {
	k, g := testFanout(t, 3, protocol.Params{MirrorSize: testMirror})
	runFiber(t, k, func(f *sim.Fiber) {
		if _, err := g.CAS(f, 256, 0, 5, []bool{true, false, true}); err != nil {
			t.Errorf("cas: %v", err)
		}
	})
	for i, want := range []byte{5, 0, 5} {
		b, _ := g.ReplicaNIC(i).Memory().Slice(256, 8)
		if b[0] != want {
			t.Fatalf("member %d = %d, want %d", i, b[0], want)
		}
	}
}

func TestFanoutMemcpyAndFlush(t *testing.T) {
	k, g := testFanout(t, 2, protocol.Params{MirrorSize: testMirror})
	rec := []byte("fanout log record")
	runFiber(t, k, func(f *sim.Fiber) {
		_ = g.WriteLocal(0, rec)
		if err := g.Write(f, 0, len(rec), true); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := g.Memcpy(f, 0, 8192, len(rec), true); err != nil {
			t.Errorf("memcpy: %v", err)
			return
		}
		if err := g.Flush(f, 0, len(rec)); err != nil {
			t.Errorf("flush: %v", err)
		}
	})
	for i := 0; i < 2; i++ {
		mem := g.ReplicaNIC(i).Memory()
		mem.Crash()
		got := make([]byte, len(rec))
		_ = mem.Read(8192, got)
		if !bytes.Equal(got, rec) {
			t.Fatalf("member %d lost executed record", i)
		}
	}
}

func TestFanoutSingleMember(t *testing.T) {
	k, g := testFanout(t, 1, protocol.Params{MirrorSize: testMirror})
	runFiber(t, k, func(f *sim.Fiber) {
		_ = g.WriteLocal(0, []byte("solo"))
		if err := g.Write(f, 0, 4, true); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	b, _ := g.ReplicaNIC(0).Memory().Slice(0, 4)
	if string(b) != "solo" {
		t.Fatalf("primary = %q", b)
	}
}

func TestFanoutPipelinedWritesWrapRing(t *testing.T) {
	k, g := testFanout(t, 3, protocol.Params{MirrorSize: testMirror, Depth: 8})
	const ops = 40
	runFiber(t, k, func(f *sim.Fiber) {
		var sigs []*sim.Signal
		for i := 0; i < ops; i++ {
			_ = g.WriteLocal(i*256, []byte{byte(i + 1)})
			sig, err := g.WriteAsync(i*256, 1, false)
			if errors.Is(err, protocol.ErrTooManyInFlight) {
				if err := f.Await(sigs[0]); err != nil {
					t.Errorf("await: %v", err)
					return
				}
				sigs = sigs[1:]
				sig, err = g.WriteAsync(i*256, 1, false)
				if err != nil {
					t.Errorf("retry %d: %v", i, err)
					return
				}
			} else if err != nil {
				t.Errorf("op %d: %v", i, err)
				return
			}
			sigs = append(sigs, sig)
		}
		if err := f.AwaitAll(sigs...); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	for i := 0; i < ops; i++ {
		for m := 0; m < 3; m++ {
			b, _ := g.ReplicaNIC(m).Memory().Slice(i*256, 1)
			if b[0] != byte(i+1) {
				t.Fatalf("op %d missing at member %d", i, m)
			}
		}
	}
}

func TestFanoutPrimaryCarriesTheLoad(t *testing.T) {
	// The §7 trade-off: fan-out concentrates transmission on the primary,
	// the chain spreads it.
	measure := func(fan bool) (primaryTx, tailTx int64) {
		k := sim.NewKernel(3)
		fab := rdma.NewFabric(k, rdma.DefaultConfig())
		client, _ := fab.AddNIC("client", nvm.NewDevice("client", testDev))
		var members []*rdma.NIC
		for i := 0; i < 3; i++ {
			nic, _ := fab.AddNIC(fmt.Sprintf("x%d", i), nvm.NewDevice(fmt.Sprintf("x%d", i), testDev))
			members = append(members, nic)
		}
		var write func(f *sim.Fiber) error
		if fan {
			g, err := SetupFanout(protocol.Env{Fabric: fab, Client: client, Replicas: members}, protocol.Params{MirrorSize: testMirror})
			if err != nil {
				t.Fatal(err)
			}
			write = func(f *sim.Fiber) error { return g.Write(f, 0, 4096, false) }
		} else {
			g, err := Setup(protocol.Env{Fabric: fab, Client: client, Replicas: members}, protocol.Params{MirrorSize: testMirror})
			if err != nil {
				t.Fatal(err)
			}
			write = func(f *sim.Fiber) error { return g.Write(f, 0, 4096, false) }
		}
		k.Spawn("driver", func(f *sim.Fiber) {
			for i := 0; i < 20; i++ {
				if err := write(f); err != nil {
					t.Errorf("write %d: %v", i, err)
					return
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		_, p := members[0].Stats()
		_, mid := members[1].Stats()
		return p, mid
	}
	fanPrimary, fanMid := measure(true)
	chainHead, chainMid := measure(false)
	if fanPrimary <= 2*fanMid {
		t.Errorf("fan-out primary tx (%d) should dominate a backup's tx (%d)", fanPrimary, fanMid)
	}
	// The chain balances: each forwarding hop transmits about the same.
	ratio := float64(chainHead) / float64(chainMid)
	if ratio > 1.5 || ratio < 0.66 {
		t.Errorf("chain forwarding hops unbalanced: head=%d mid=%d", chainHead, chainMid)
	}
	if fanPrimary <= chainHead {
		t.Errorf("fan-out primary (%d) should transmit more than chain head (%d)",
			fanPrimary, chainHead)
	}
}
