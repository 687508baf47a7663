package topo_test

import (
	"errors"
	"testing"

	"hyperloop/internal/naive"
	"hyperloop/internal/protocol"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
)

// recorder wraps a builder so a test sees every group it built and the
// Params each build received.
type recorder struct {
	groups []protocol.Protocol
	hosts  []string // each build's client NIC, in build order
	params []protocol.Params
}

func (rec *recorder) wrap(b protocol.Builder) protocol.Builder {
	return func(env protocol.Env, p protocol.Params) (protocol.Protocol, error) {
		g, err := b(env, p)
		if err == nil {
			rec.groups = append(rec.groups, g)
			rec.hosts = append(rec.hosts, env.Client.Host())
			rec.params = append(rec.params, p)
		}
		return g, err
	}
}

// TestInstallPoint: the rack is where every group is built, so it is
// where a hook sees them all. Close must reach a registry-named group, a
// tuned builder's, one built by GroupOver and the shard router's; and a
// tuned builder on a tenant rack receives the wake penalty in its Params
// exactly as a registry build does.
func TestInstallPoint(t *testing.T) {
	polling := naive.Builder(func(c *naive.Config) { c.Mode = naive.ModePolling })
	for _, tenants := range []int{0, 2} {
		r, err := topo.Build(topo.Spec{Seed: 1, Servers: 3, Cores: 1, TenantsPerCore: tenants, DevExtra: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		var rec recorder
		if _, err := r.Group(topo.GroupSpec{Name: "named", Servers: topo.FirstServers(3), Mirror: 64 << 10},
			rec.wrap(protocol.Named("chain")), protocol.Params{}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Group(topo.GroupSpec{Name: "tuned", Servers: []int{2, 1, 0}, Mirror: 64 << 10},
			rec.wrap(polling), protocol.Params{}); err != nil {
			t.Fatal(err)
		}
		env, err := r.Env(topo.GroupSpec{Name: "over", Servers: topo.FirstServers(2), Mirror: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.GroupOver(env, rec.wrap(protocol.Named("naive")), protocol.Params{MirrorSize: 64 << 10}); err != nil {
			t.Fatal(err)
		}
		cfg := shard.Config{Shards: 2, Policy: shard.Range, Keys: 2}
		if _, err := shard.New(cfg, shard.RackBackends(r, cfg, [][]int{{0, 1}, {1, 2}},
			rec.wrap(protocol.Named("chain")), protocol.Params{})); err != nil {
			t.Fatal(err)
		}
		if want := 3 + 1 + cfg.Shards; len(rec.groups) != want {
			t.Fatalf("built %d groups, want %d", len(rec.groups), want)
		}
		for i, p := range rec.params {
			if loaded := tenants > 0; (p.WakePenalty > 0) != loaded || (p.WakePenaltyProb > 0) != loaded {
				t.Errorf("tenants=%d: build %d (%s) got wake penalty %v p=%v", tenants, i, rec.hosts[i], p.WakePenalty, p.WakePenaltyProb)
			}
		}
		for i, g := range rec.groups {
			if _, err := g.WriteAsync(0, 64, false); err != nil {
				t.Fatalf("group %d (%s) is not live before Close: %v", i, rec.hosts[i], err)
			}
		}
		r.Close()
		for i, g := range rec.groups {
			if _, err := g.WriteAsync(0, 64, false); !errors.Is(err, protocol.ErrClosed) {
				t.Errorf("tenants=%d: Close left group %d (%s) open: %v", tenants, i, rec.hosts[i], err)
			}
		}
	}
}

// TestShardBackends: the coordinator's group comes first, on the rack's
// first servers; shards follow the placement; a failing build closes what
// was built.
func TestShardBackends(t *testing.T) {
	r, err := topo.Build(topo.Spec{Seed: 3, Servers: 4, Cores: 1, DevExtra: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shard.Config{Shards: 3, Policy: shard.Range, Keys: 3}
	place := [][]int{{2, 3}, {0, 1}, {3, 0}}
	var rec recorder
	router, err := shard.New(cfg, shard.RackBackends(r, cfg, place, rec.wrap(protocol.Named("chain")), protocol.Params{}))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if got := rec.hosts[0]; got != "cli/coord" {
		t.Fatalf("first group built is %q's, want the coordinator's", got)
	}
	coord := r.Members("coord")
	if coord.Client.Host() != "cli/coord" || coord.Replicas[0].Host() != "srv0/coord.0" || coord.Replicas[1].Host() != "srv1/coord.1" {
		t.Errorf("coordinator NICs: %s %s %s", coord.Client.Host(), coord.Replicas[0].Host(), coord.Replicas[1].Host())
	}
	if got := coord.Client.Memory().Size(); got != cfg.CoordMirrorSize()+64<<10 {
		t.Errorf("coordinator device %d bytes, want CoordMirrorSize + DevExtra", got)
	}
	sh2 := r.Members("sh2")
	if sh2.Replicas[0].Host() != "srv3/sh2.0" || sh2.Replicas[1].Host() != "srv0/sh2.1" || sh2.Scheds[0] != r.Scheds[3] {
		t.Errorf("shard 2 placement: %s %s", sh2.Replicas[0].Host(), sh2.Replicas[1].Host())
	}
	if got := sh2.Client.Memory().Size(); got != cfg.MirrorSize()+64<<10 {
		t.Errorf("shard device %d bytes, want MirrorSize + DevExtra", got)
	}
	err = r.Run(sim.Second, "txn", func(f *sim.Fiber) error {
		return router.Txn(f, []shard.Write{{Key: 0, Data: []byte("a")}, {Key: 2, Data: []byte("b")}})
	})
	if err != nil {
		t.Fatal(err)
	}

	r2, err := topo.Build(topo.Spec{Seed: 3, Servers: 2, DevExtra: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.New(cfg, shard.RackBackends(r2, cfg, place, protocol.Named("chain"), protocol.Params{})); err == nil {
		t.Fatal("placement on servers the rack does not have was accepted")
	}
}
