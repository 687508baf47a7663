package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// randomFaultPlan derives a seed-deterministic stress plan: bidirectional
// random drop/dup/delay on every link, plus one or two crash/restart
// cycles on randomly chosen members. The generator only emits plans
// Validate accepts — alternating crash→restart per host with strictly
// increasing instants — so a rejected plan is a generator bug, not noise.
func randomFaultPlan(rng *rand.Rand, nReplicas int) *rdma.FaultPlan {
	p := &rdma.FaultPlan{
		Links: []rdma.LinkFault{{
			From: "", To: "", // any→any: client↔member and member↔member alike
			DropProb:   rng.Float64() * 0.10,
			DupProb:    rng.Float64() * 0.10,
			ExtraDelay: sim.Duration(rng.Intn(3000)) * sim.Nanosecond,
		}},
	}
	cycles := 1 + rng.Intn(2)
	at := sim.Time(0).Add(sim.Duration(300+rng.Intn(300)) * sim.Microsecond)
	for c := 0; c < cycles; c++ {
		host := fmt.Sprintf("server-%d", rng.Intn(nReplicas))
		down := sim.Duration(100+rng.Intn(300)) * sim.Microsecond
		p.NICs = append(p.NICs,
			rdma.NICFault{Host: host, At: at, Down: true},
			rdma.NICFault{Host: host, At: at.Add(down), Down: false})
		at = at.Add(down + sim.Duration(200+rng.Intn(400))*sim.Microsecond)
	}
	return p
}

// TestProtocolFaultStressProperty generalizes the rdma-level
// TestFaultStressAllOpsResolve to whole replication protocols: under a
// randomized drop/dup/delay plan with crash/restart cycles, every blocking
// group operation must resolve — success or a canonical op error — with
// nothing left in flight and the op accounting balanced, on every
// registered protocol at seeds 1, 2, and 42.
func TestProtocolFaultStressProperty(t *testing.T) {
	const ops = 80
	for _, name := range protocol.Names() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2, 42} {
				rng := rand.New(rand.NewSource(int64(seed)))
				plan := randomFaultPlan(rng, 3)
				if err := plan.Validate(); err != nil {
					t.Fatalf("seed %d: generator emitted an invalid plan: %v", seed, err)
				}
				c := confCluster(t, seed, name, protocol.Params{OpTimeout: 150 * sim.Microsecond, MaxRetries: 2, RetryBackoff: 50 * sim.Microsecond}, plan)
				g := c.group
				var ok, failed int
				drive(t, c, func(f *sim.Fiber) error {
					for i := 0; i < ops; i++ {
						off := (i % 32) * 1024
						var err error
						switch i % 4 {
						case 0, 1:
							err = g.Write(f, off, 512, true)
						case 2:
							err = g.Memcpy(f, off, 40<<10, 256, false)
						case 3:
							err = g.Flush(f, off, 512)
						}
						switch {
						case err == nil:
							ok++
						case protocol.IsOpError(err):
							failed++
						default:
							return fmt.Errorf("op %d: non-op error %w", i, err)
						}
						f.Sleep(15 * sim.Microsecond)
					}
					return nil
				})
				if ok == 0 {
					t.Fatalf("seed %d: no op ever succeeded — plan too hostile to test anything", seed)
				}
				if fl := g.InFlight(); fl != 0 {
					t.Fatalf("seed %d: %d ops unresolved — timeout leak", seed, fl)
				}
				issued, completed := g.Stats()
				if completed > issued {
					t.Fatalf("seed %d: completed %d > issued %d", seed, completed, issued)
				}
				if fs := c.Fabric.FaultStats(); fs.Drops == 0 && fs.Dups == 0 {
					t.Fatalf("seed %d: plan injected nothing: %+v", seed, fs)
				}
				g.Close()
			}
		})
	}
}
