package experiments

import (
	"testing"

	"hyperloop"
	"hyperloop/internal/protocol"
	"hyperloop/internal/sim"
)

// TestFacadePinnedMatchesFig9: the facade's NewNaiveGroup(NaivePinned)
// (ycsb-run -backend naive-pinned) and Fig. 9's pinned baseline are one
// cost model, so the same closed-loop gWRITEs take the same virtual time
// on each.
func TestFacadePinnedMatchesFig9(t *testing.T) {
	const ops, size = 50, 1024
	write := func(g protocol.Protocol, f *sim.Fiber, lat []sim.Duration) error {
		for i := range lat {
			start := f.Now()
			if err := g.Write(f, (i%8)*65536, size, true); err != nil {
				return err
			}
			lat[i] = f.Now().Sub(start)
		}
		return nil
	}

	fig9 := make([]sim.Duration, ops)
	c, err := backendCluster(nil, 1, BackendNaivePinned, 3, microMirror, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(sim.Second, "fig9", func(f *sim.Fiber) error { return write(c.group, f, fig9) }); err != nil {
		t.Fatal(err)
	}

	facade := make([]sim.Duration, ops)
	fc, err := hyperloop.NewCluster(hyperloop.ClusterConfig{Seed: 1, DeviceSize: microMirror + devExtra})
	if err != nil {
		t.Fatal(err)
	}
	g, err := fc.NewNaiveGroup(microMirror, hyperloop.NaivePinned)
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.Run(func(f *sim.Fiber) error { return write(g, f, facade) }); err != nil {
		t.Fatal(err)
	}

	for i := range fig9 {
		if facade[i] != fig9[i] {
			t.Fatalf("op %d: facade pinned gWRITE took %v, Fig. 9's %v", i, facade[i], fig9[i])
		}
	}
}
