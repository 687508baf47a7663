package shard

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hyperloop/internal/hyperloop"
	"hyperloop/internal/protocol"
	"hyperloop/internal/protocol/protocoltest"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
	"hyperloop/internal/txn"
	"hyperloop/internal/wal"
)

// testDev is each NIC's device headroom past its group's mirror.
const testDev = 64 * 1024

func testConfig(shards int) Config {
	return Config{Shards: shards, SlotSize: 64, SlotsPerShard: 8, LogSize: 1024}
}

// rig is a Router over real hyperloop chains: one independent 2-replica
// group per shard and one for the coordinator's commit log, each behind a
// pass-through StopGroup so a test can freeze or slow it.
type rig struct {
	k      *sim.Kernel
	router *Router
	stops  []*protocoltest.StopGroup // per shard

	coordGroup *hyperloop.Group
	coordStop  *protocoltest.StopGroup
}

func newRig(t testing.TB, cfg Config, faults *rdma.FaultPlan, opTimeout sim.Duration) *rig {
	t.Helper()
	rack, err := topo.Build(topo.Spec{Seed: 7, Servers: 2, Faults: faults, DevExtra: testDev})
	if err != nil {
		t.Fatal(err)
	}
	rg := &rig{k: rack.Kernel}
	// Every group is a chain on both servers behind its StopGroup.
	stopped := func(env protocol.Env, p protocol.Params) (protocol.Protocol, error) {
		g, err := protocol.Build("chain", env, p)
		if err != nil {
			return nil, err
		}
		stop := protocoltest.NewStopGroup(g)
		if env.Client.Host() == "cli/coord" {
			rg.coordGroup, rg.coordStop = g.(*hyperloop.Group), stop
		} else {
			rg.stops = append(rg.stops, stop)
		}
		return stop, nil
	}
	place := make([][]int, cfg.Shards)
	for i := range place {
		place[i] = topo.FirstServers(2)
	}
	r, err := New(cfg, RackBackends(rack, cfg, place, stopped, protocol.Params{OpTimeout: opTimeout}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	rg.router = r
	return rg
}

func (r *rig) run(t testing.TB, fn func(f *sim.Fiber)) {
	t.Helper()
	r.k.Spawn("shard-test", fn)
	if err := r.k.RunUntil(r.k.Now().Add(30 * sim.Second)); err != nil {
		t.Fatalf("kernel: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}, nil); !errors.Is(err, ErrBadArgument) {
		t.Errorf("zero shards: err = %v, want ErrBadArgument", err)
	}
	if _, err := New(Config{Shards: 2, Policy: Range}, nil); !errors.Is(err, ErrBadArgument) {
		t.Errorf("range without keys: err = %v, want ErrBadArgument", err)
	}
	if got := (Config{}).MirrorSize(); got != 0 {
		t.Errorf("invalid config MirrorSize = %d, want 0", got)
	}
	cfg := testConfig(4)
	want := txn.MirrorSizeFor(cfg.LogSize, cfg.SlotsPerShard*cfg.SlotSize)
	if got := cfg.MirrorSize(); got != want {
		t.Errorf("MirrorSize = %d, want %d", got, want)
	}
	// 16 commit records of up to 4 participants behind a 256-byte ring.
	if got, want := cfg.CoordMirrorSize(), txn.MirrorSizeFor(256, txn.CommitLogSizeFor(16, 4)); got != want {
		t.Errorf("CoordMirrorSize = %d, want %d", got, want)
	}
	if got := (Config{}).CoordMirrorSize(); got != 0 {
		t.Errorf("invalid config CoordMirrorSize = %d, want 0", got)
	}
	if Hash.String() != "hash" || Range.String() != "range" || Policy(9).String() != "policy(9)" {
		t.Error("Policy.String mismatch")
	}
}

func TestNewBuilderFailure(t *testing.T) {
	boom := errors.New("boom")
	closed := 0
	_, err := New(testConfig(3), func(id int) (Backend, error) {
		if id == 2 {
			return nil, boom
		}
		return &fakeBackend{onClose: func() { closed++ }}, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if closed != 3 {
		t.Errorf("closed %d backends on failure, want shards 0 and 1 and the coordinator's", closed)
	}
	// The coordinator's group is asked for first; without it nothing is built.
	built := 0
	_, err = New(testConfig(3), func(id int) (Backend, error) {
		if built++; id == Coordinator {
			return nil, boom
		}
		return &fakeBackend{}, nil
	})
	if !errors.Is(err, boom) || built != 1 {
		t.Errorf("coordinator build failure: err = %v after %d builds, want boom after 1", err, built)
	}
}

// fakeBackend satisfies Backend with an in-memory mirror — enough for
// txn.New's initial control-block write (WriteLocal + Write).
type fakeBackend struct {
	mem     [8192]byte
	onClose func()
}

func (b *fakeBackend) GroupSize() int { return 1 }
func (b *fakeBackend) WriteLocal(off int, data []byte) error {
	copy(b.mem[off:], data)
	return nil
}
func (b *fakeBackend) ViewLocal(off, n int) ([]byte, error) {
	out := make([]byte, n)
	copy(out, b.mem[off:])
	return out, nil
}
func (b *fakeBackend) Write(f *sim.Fiber, off, size int, durable bool) error { return nil }
func (b *fakeBackend) WriteAsync(off, size int, durable bool) (*sim.Signal, error) {
	return firedSignal(), nil
}
func (b *fakeBackend) Memcpy(f *sim.Fiber, src, dst, size int, durable bool) error {
	copy(b.mem[dst:dst+size], b.mem[src:src+size])
	return nil
}
func (b *fakeBackend) MemcpyAsync(src, dst, size int, durable bool) (*sim.Signal, error) {
	return firedSignal(), b.Memcpy(nil, src, dst, size, durable)
}
func firedSignal() *sim.Signal {
	s := sim.NewSignal()
	s.Fire(nil)
	return s
}
func (b *fakeBackend) CAS(f *sim.Fiber, off int, old, new uint64, exec []bool) ([]uint64, error) {
	return nil, errors.New("unsupported")
}
func (b *fakeBackend) Flush(f *sim.Fiber, off, size int) error { return nil }
func (b *fakeBackend) Close() {
	if b.onClose != nil {
		b.onClose()
	}
}

func TestShardOfHashAndRange(t *testing.T) {
	hash, err := New(testConfig(8), func(int) (Backend, error) { return &fakeBackend{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 8)
	for k := uint64(0); k < 4096; k++ {
		s := hash.ShardOf(k)
		if s < 0 || s >= 8 {
			t.Fatalf("hash shard %d out of range", s)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n < 256 || n > 768 {
			t.Errorf("hash shard %d got %d of 4096 keys — badly unbalanced", s, n)
		}
	}

	rcfg := testConfig(4)
	rcfg.Policy = Range
	rcfg.Keys = 100
	rng, err := New(rcfg, func(int) (Backend, error) { return &fakeBackend{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ key, want uint64 }{
		{0, 0}, {24, 0}, {25, 1}, {99, 3}, {1000, 3}, // ≥ Keys clamps to last
	} {
		if got := rng.ShardOf(tc.key); got != int(tc.want) {
			t.Errorf("range ShardOf(%d) = %d, want %d", tc.key, got, tc.want)
		}
	}
}

func TestPutGetAcrossShards(t *testing.T) {
	r := newRig(t, testConfig(4), nil, 0)
	r.run(t, func(f *sim.Fiber) {
		if got, err := r.router.Get(7); err != nil || got != nil {
			t.Errorf("get of unwritten key = %q, %v; want nil, nil", got, err)
		}
		for k := uint64(0); k < 16; k++ {
			if err := r.router.Put(f, k, []byte(fmt.Sprintf("v%d", k))); err != nil {
				t.Fatalf("put %d: %v", k, err)
			}
		}
		for k := uint64(0); k < 16; k++ {
			want := []byte(fmt.Sprintf("v%d", k))
			got, err := r.router.Get(k)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("get %d = %q (%v), want %q", k, got, err, want)
			}
		}
		// Overwrite shrinks the visible value.
		if err := r.router.Put(f, 3, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if got, _ := r.router.Get(3); !bytes.Equal(got, []byte("x")) {
			t.Errorf("overwrite: got %q, want \"x\"", got)
		}
		if err := r.router.Put(f, 4, bytes.Repeat([]byte("z"), 65)); !errors.Is(err, ErrBadArgument) {
			t.Errorf("oversized put err = %v, want ErrBadArgument", err)
		}
		st := r.router.Stats()
		if st.Puts != 17 || st.Gets < 16 {
			t.Errorf("stats = %+v, want 17 puts, ≥16 gets", st)
		}
	})
}

func TestShardFull(t *testing.T) {
	cfg := testConfig(1)
	cfg.SlotsPerShard = 2
	r := newRig(t, cfg, nil, 0)
	r.run(t, func(f *sim.Fiber) {
		if err := r.router.Put(f, 1, []byte("a")); err != nil {
			t.Fatal(err)
		}
		if err := r.router.Put(f, 2, []byte("b")); err != nil {
			t.Fatal(err)
		}
		if err := r.router.Put(f, 3, []byte("c")); !errors.Is(err, ErrShardFull) {
			t.Errorf("err = %v, want ErrShardFull", err)
		}
		// Existing keys still writable.
		if err := r.router.Put(f, 1, []byte("a2")); err != nil {
			t.Errorf("rewrite after full: %v", err)
		}
	})
}

func TestCrossShardTxnCommit(t *testing.T) {
	cfg := testConfig(4)
	cfg.Policy = Range
	cfg.Keys = 4 // one key per shard: keys 0..3 hit shards 0..3
	r := newRig(t, cfg, nil, 0)
	r.run(t, func(f *sim.Fiber) {
		if err := r.router.Txn(f, nil); err != nil {
			t.Errorf("empty txn: %v", err)
		}
		err := r.router.Txn(f, []Write{
			{Key: 3, Data: []byte("three")}, // deliberately out of shard order
			{Key: 0, Data: []byte("zero")},
			{Key: 2, Data: []byte("two")},
		})
		if err != nil {
			t.Fatalf("txn: %v", err)
		}
		for _, tc := range []struct {
			key  uint64
			want string
		}{{0, "zero"}, {2, "two"}, {3, "three"}} {
			got, err := r.router.Get(tc.key)
			if err != nil || string(got) != tc.want {
				t.Errorf("get %d = %q (%v), want %q", tc.key, got, err, tc.want)
			}
		}
		if got, _ := r.router.Get(1); got != nil {
			t.Errorf("untouched shard has data: %q", got)
		}
		// Single-shard txn counts as commit but not cross-shard.
		if err := r.router.Txn(f, []Write{{Key: 1, Data: []byte("one")}}); err != nil {
			t.Fatal(err)
		}
		st := r.router.Stats()
		if st.Commits != 2 || st.CrossShard != 1 || st.Aborts != 0 {
			t.Errorf("stats = %+v, want 2 commits, 1 cross-shard, 0 aborts", st)
		}
		if err := r.router.Txn(f, []Write{{Key: 0, Data: bytes.Repeat([]byte("z"), 65)}}); !errors.Is(err, ErrBadArgument) {
			t.Errorf("oversized txn write err = %v, want ErrBadArgument", err)
		}
	})
}

func TestCrossShardTxnAbortUnderFault(t *testing.T) {
	cfg := testConfig(2)
	cfg.Policy = Range
	cfg.Keys = 2
	faults := &rdma.FaultPlan{
		NICs: []rdma.NICFault{{Host: "srv1/sh1.1", At: sim.Time(5 * sim.Microsecond), Down: true}},
	}
	r := newRig(t, cfg, faults, 200*sim.Microsecond)
	r.run(t, func(f *sim.Fiber) {
		f.Sleep(50 * sim.Microsecond)
		err := r.router.Txn(f, []Write{
			{Key: 0, Data: []byte("healthy")},
			{Key: 1, Data: []byte("faulted")},
		})
		if !errors.Is(err, txn.ErrAborted) {
			t.Fatalf("txn err = %v, want txn.ErrAborted", err)
		}
		if st := r.router.Stats(); st.Aborts != 1 || st.Commits != 0 {
			t.Errorf("stats = %+v, want 1 abort, 0 commits", st)
		}
		// Healthy shard rolled back: unlocked, no data visible.
		if locked, err := r.router.Shard(0).Store.Locked(); err != nil || locked {
			t.Errorf("shard 0 lock leaked (locked=%v, err=%v)", locked, err)
		}
		if got, _ := r.router.Get(0); got != nil {
			t.Errorf("aborted write visible: %q", got)
		}
		// Healthy shard still serves traffic.
		if err := r.router.Txn(f, []Write{{Key: 0, Data: []byte("retry")}}); err != nil {
			t.Errorf("healthy shard txn after abort: %v", err)
		}
		if got, _ := r.router.Get(0); string(got) != "retry" {
			t.Errorf("get after retry = %q", got)
		}
	})
}

func TestRouterRecover(t *testing.T) {
	cfg := testConfig(2)
	cfg.Policy = Range
	cfg.Keys = 2
	r := newRig(t, cfg, nil, 0)
	r.run(t, func(f *sim.Fiber) {
		// A coordinator prepares shard 0 and crashes before commit.
		tx, err := new(txn.DistTxn).Begin([]txn.Participant{{
			Store:   r.router.Shard(0).Store,
			Entries: []wal.Entry{{Off: 0, Data: []byte("orphan")}},
		}}, r.router.CommitLog(), []int{0})
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Prepare(f); err != nil {
			t.Fatal(err)
		}
		rs, err := r.router.Recover(f)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if rs.Back != 1 || rs.Forward != 0 {
			t.Errorf("recover stats = %+v, want 1 rolled back", rs)
		}
		if locked, _ := r.router.Shard(0).Store.Locked(); locked {
			t.Error("lock leaked after recover")
		}
		// Idempotent on a clean router.
		if rs, err := r.router.Recover(f); err != nil || rs != (RecoverStats{}) {
			t.Errorf("second recover = %+v, %v; want zero stats, nil", rs, err)
		}
	})
}

func TestPlace(t *testing.T) {
	if RoundRobin.String() != "round-robin" || TenantAffinity.String() != "tenant-affinity" ||
		PlacementPolicy(9).String() != "placement(9)" {
		t.Error("PlacementPolicy.String mismatch")
	}
	if _, err := Place(RoundRobin, 0, 1, 1, nil); !errors.Is(err, ErrBadArgument) {
		t.Errorf("zero shards: %v", err)
	}
	if _, err := Place(RoundRobin, 1, 3, 2, nil); !errors.Is(err, ErrBadArgument) {
		t.Errorf("replicas > servers: %v", err)
	}
	if _, err := Place(TenantAffinity, 1, 1, 1, nil); !errors.Is(err, ErrBadArgument) {
		t.Errorf("affinity without tenantOf: %v", err)
	}
	if _, err := Place(TenantAffinity, 4, 2, 4, func(s int) int { return s - 2 }); !errors.Is(err, ErrBadArgument) {
		t.Errorf("negative tenant: %v", err)
	}

	rr, err := Place(RoundRobin, 6, 2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	servers := map[int]bool{}
	for s, row := range rr {
		if len(row) != 2 {
			t.Fatalf("shard %d has %d replicas", s, len(row))
		}
		if row[0] == row[1] {
			t.Errorf("shard %d replicas share server %d", s, row[0])
		}
		for _, srv := range row {
			if srv < 0 || srv >= 4 {
				t.Errorf("shard %d placed on bad server %d", s, srv)
			}
			servers[srv] = true
		}
	}
	if len(servers) != 4 {
		t.Errorf("round-robin used %d of 4 servers", len(servers))
	}

	tenantOf := func(s int) int { return s % 3 }
	aff, err := Place(TenantAffinity, 9, 2, 8, tenantOf)
	if err != nil {
		t.Fatal(err)
	}
	for s, row := range aff {
		// Same tenant ⇒ same servers.
		peer := (s + 3) % 9 // next shard of the same tenant
		if tenantOf(peer) == tenantOf(s) {
			if aff[peer][0] != row[0] || aff[peer][1] != row[1] {
				t.Errorf("tenant %d shards %d/%d placed apart: %v vs %v",
					tenantOf(s), s, peer, row, aff[peer])
			}
		}
		if row[0] == row[1] {
			t.Errorf("shard %d replicas share server %d", s, row[0])
		}
	}
}
