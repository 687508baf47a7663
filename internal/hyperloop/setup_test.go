package hyperloop

import (
	"errors"
	"fmt"
	"testing"

	"hyperloop/internal/nvm"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// rig is a fabric with a client and nReplicas replicas, every device
// testDev bytes unless sizes names another for replica i.
func rig(t *testing.T, seed uint64, nReplicas int, sizes map[int]int) (*sim.Kernel, protocol.Env) {
	t.Helper()
	k := sim.NewKernel(seed)
	env := protocol.Env{Fabric: rdma.NewFabric(k, rdma.DefaultConfig())}
	add := func(host string, size int) *rdma.NIC {
		nic, err := env.Fabric.AddNIC(host, nvm.NewDevice(host, size))
		if err != nil {
			t.Fatal(err)
		}
		return nic
	}
	env.Client = add("client", testDev)
	for i := 0; i < nReplicas; i++ {
		size := testDev
		if s, ok := sizes[i]; ok {
			size = s
		}
		env.Replicas = append(env.Replicas, add(fmt.Sprintf("r%d", i), size))
	}
	return k, env
}

// TestFailedSetupReleasesNICs: a Setup whose third replica's device holds
// the mirror but not the rings fails, and closes what it carved on the
// client and the first two replicas, so a Setup over those three NICs
// succeeds and replicates.
func TestFailedSetupReleasesNICs(t *testing.T) {
	for _, name := range []string{"chain", "fanout", "bcast"} {
		t.Run(name, func(t *testing.T) {
			k, env := rig(t, 1, 3, map[int]int{2: testMirror + 64})
			p := protocol.Params{MirrorSize: testMirror}
			if _, err := protocol.Build(name, env, p); err == nil {
				t.Fatal("Setup over a too-small device succeeded")
			}
			for _, nic := range append([]*rdma.NIC{env.Client}, env.Replicas...) {
				if !nic.Idle() {
					t.Fatalf("failed Setup left %s claimed", nic.Host())
				}
			}
			env.Replicas = env.Replicas[:2]
			g, err := protocol.Build(name, env, p)
			if err != nil {
				t.Fatalf("Setup after a failed one: %v", err)
			}
			runFiber(t, k, func(f *sim.Fiber) {
				if err := g.Write(f, 0, 64, true); err != nil {
					t.Error(err)
				}
			})
		})
	}
}

// TestBroadcastAckStateBoundedUnderLoss: on a lossy fabric some member
// acks never arrive, so an operation's ack state is never retired by its
// acks; the slot's next operation takes it over, and at most Depth states
// are ever live however long the run.
func TestBroadcastAckStateBoundedUnderLoss(t *testing.T) {
	k, env := rig(t, 1, 3, nil)
	if err := env.Fabric.InstallFaultPlan(&rdma.FaultPlan{Links: []rdma.LinkFault{{DropProb: 0.01}}}); err != nil {
		t.Fatal(err)
	}
	g, err := SetupBroadcast(env, protocol.Params{MirrorSize: testMirror, OpTimeout: 200 * sim.Microsecond}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var failed int
	runFiber(t, k, func(f *sim.Fiber) {
		for i := 0; i < 8000; i++ {
			err := g.Write(f, (i%16)*1024, 512, true)
			switch {
			case errors.Is(err, protocol.ErrTimeout):
				failed++
			case err != nil:
				t.Errorf("op %d: %v", i, err)
				return
			}
		}
	})
	if failed == 0 {
		t.Fatal("no operation lost an ack: the plan did not exercise the ack state")
	}
	live := 0
	for _, st := range g.acks {
		if st.live {
			live++
		}
	}
	if depth := g.Params().Depth; live > depth {
		t.Fatalf("%d ack states live after 8000 ops (%d timed out), want at most Depth %d", live, failed, depth)
	}
}
