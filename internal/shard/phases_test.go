package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
)

// subsetSteps mirrors internal/txn's table: for each parallel 2PC step,
// how many group ops (1 lock, 2 record, 3 tail, 4 memcpy, 5 head,
// 6 unlock) a frozen participant completes before it stops inside the
// step, and whether the commit record is durable by then. Stop 5 — head
// advanced, still locked — is inside the execute step since the release
// rides behind it; frozenAt keeps its subtests under the op it stops at.
var subsetSteps = []struct {
	step      txn.Step
	stops     []int
	committed bool
}{
	{txn.StepLock, []int{0}, false},
	{txn.StepAppend, []int{1, 2}, false},
	{txn.StepExecute, []int{3, 4, 5}, true},
}

// frozenAt names the phase of the group op a participant with a budget of
// stop ops is frozen at.
func frozenAt(stop int) string {
	return [...]string{"lock", "append", "append", "execute", "execute", "unlock"}[stop]
}

// TestCrashSubsetSweep is the partial-order companion of
// TestCrashPointSweep: a span-4 Router.Txn in which every non-empty proper
// subset of shards completes a parallel step while the others are frozen
// at each group-op boundary inside it; the coordinator dies as soon as the
// step completes anywhere and Router.Recover must resolve all-or-nothing.
func TestCrashSubsetSweep(t *testing.T) {
	const span = 4
	for _, ss := range subsetSteps {
		for _, stop := range ss.stops {
			for mask := 1; mask < 1<<span-1; mask++ {
				t.Run(fmt.Sprintf("%s/stop%d/subset%04b", frozenAt(stop), stop, mask), func(t *testing.T) {
					r := newRig(t, sweepConfig(span), nil, 0)
					r.run(t, func(f *sim.Fiber) {
						for i := 0; i < span; i++ {
							if mask&(1<<i) == 0 {
								r.stops[i].Budget = stop
							}
						}
						r.router.SetTxnStepHook(func(s txn.Step, participant int) error {
							if s != ss.step {
								return nil
							}
							if mask&(1<<participant) == 0 {
								t.Errorf("frozen shard %d completed the step", participant)
							}
							return txn.ErrCoordinatorCrash
						})
						live := f.Kernel().LiveFibers()
						if err := r.router.Txn(f, spanWrites(span)); !errors.Is(err, txn.ErrCoordinatorCrash) {
							t.Errorf("txn err = %v, want injected crash", err)
							return
						}
						if got := f.Kernel().LiveFibers(); got != live {
							t.Errorf("%d live fibers when Txn returned, %d before it", got, live)
						}
						for _, g := range r.stops {
							g.Budget = -1
						}
						recoverAndAudit(t, f, r, span, ss.committed)
						if err := r.router.Txn(f, spanWrites(span)); err != nil {
							t.Errorf("retry after recover: %v", err)
						}
					})
				})
			}
		}
	}
}

// TestTxnCrashProperty drives one deployment through 200 seeded cases:
// a transaction over 1–4 random keys, every shard's chain slowed by a
// random per-op stagger, the coordinator killed at a random hook firing
// (or not at all), then Recover. After every case the durable image of
// every key ever written must equal the model — a crashed transaction
// counts in full if its commit record was durable and not at all
// otherwise — Recover must be idempotent, and every acknowledged key must
// read back through Get.
func TestTxnCrashProperty(t *testing.T) {
	const shards, keys, cases = 4, 24, 200
	cfg := testConfig(shards)
	cfg.SlotsPerShard = keys // every key may hash to one shard
	r := newRig(t, cfg, nil, 0)
	rng := rand.New(rand.NewSource(20260926))
	durable := map[uint64]string{} // model of the data regions
	acked := map[uint64]bool{}     // keys Get is expected to serve
	r.run(t, func(f *sim.Fiber) {
		for c := 0; c < cases; c++ {
			writes := make([]Write, 1+rng.Intn(4))
			span := map[int]bool{}
			for i := range writes {
				key := uint64(rng.Intn(keys))
				for dup := true; dup; { // distinct keys within one transaction
					dup = false
					for _, w := range writes[:i] {
						if w.Key == key {
							key, dup = (key+1)%keys, true
						}
					}
				}
				writes[i] = Write{Key: key, Data: []byte(fmt.Sprintf("c%03dk%02d", c, key))}
				span[r.router.ShardOf(key)] = true
			}
			for _, g := range r.stops {
				g.Delay = sim.Duration(rng.Intn(4000)) * sim.Nanosecond
			}
			firings := 3*len(span) + 2
			kill := rng.Intn(firings + 3) // > firings: no crash
			step := 0
			r.router.SetTxnStepHook(func(txn.Step, int) error {
				if step++; step == kill {
					return txn.ErrCoordinatorCrash
				}
				return nil
			})
			label := fmt.Sprintf("case %d (span %d, kill %d/%d)", c, len(span), kill, firings)
			err := r.router.Txn(f, writes)
			crashed := kill >= 1 && kill <= firings
			if crashed != errors.Is(err, txn.ErrCoordinatorCrash) || (!crashed && err != nil) {
				t.Errorf("%s: txn err = %v", label, err)
				return
			}
			committed := !crashed || kill >= 2*len(span)+1
			for _, w := range writes {
				if committed {
					durable[w.Key] = string(w.Data)
				}
				if !crashed {
					acked[w.Key] = true
				}
			}

			r.router.SetTxnStepHook(nil)
			rs, err := r.router.Recover(f)
			if err != nil {
				t.Errorf("%s: recover: %v", label, err)
				return
			}
			if !crashed && rs != (RecoverStats{}) {
				t.Errorf("%s: recover after a clean commit found work: %+v", label, rs)
			}
			if rs, err := r.router.Recover(f); err != nil || rs != (RecoverStats{}) {
				t.Errorf("%s: second recover = %+v, %v", label, rs, err)
			}
			for key := uint64(0); key < keys; key++ {
				sh := r.router.Shard(r.router.ShardOf(key))
				if sl, ok := sh.dir[key]; ok {
					want := durable[key]
					if want == "" {
						want = string(make([]byte, 8)) // allocated by an aborted first touch
					}
					got, err := sh.Store.ViewData(sl.idx*cfg.SlotSize, len(want))
					if err != nil || string(got) != want {
						t.Errorf("%s: key %d durable = %q (%v), want %q", label, key, got, err, want)
					}
				} else if durable[key] != "" {
					t.Errorf("%s: key %d lost its slot", label, key)
				}
				if acked[key] {
					if got, err := r.router.Get(key); err != nil || string(got) != durable[key] {
						t.Errorf("%s: get(%d) = %q (%v), want %q", label, key, got, err, durable[key])
					}
				}
			}
			for i := 0; i < shards; i++ {
				st := r.router.Shard(i).Store
				if locked, err := st.Locked(); err != nil || locked {
					t.Errorf("%s: shard %d lock leaked (%v)", label, i, err)
				}
				if used, err := st.LogUsed(); err != nil || used != 0 {
					t.Errorf("%s: shard %d log used = %d (%v)", label, i, used, err)
				}
			}
			if t.Failed() {
				return
			}
		}
		if f.Kernel().LiveFibers() != 1 {
			t.Errorf("%d fibers alive after the last case, want the driver alone", f.Kernel().LiveFibers())
		}
	})
}

// BenchmarkRouterTxn measures one logged Router.Txn per iteration at spans
// 1, 2 and 4 on 2-replica chains: virt-us/op is the transaction's virtual
// latency, allocs/op and ns/op its host cost.
func BenchmarkRouterTxn(b *testing.B) {
	for _, span := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("span%d", span), func(b *testing.B) {
			r := newRig(b, sweepConfig(4), nil, 0)
			writes := spanWrites(span)
			b.ReportAllocs()
			r.run(b, func(f *sim.Fiber) {
				if err := r.router.Txn(f, writes); err != nil { // first touch: slots, fiber pool
					b.Error(err)
					return
				}
				b.ResetTimer()
				start := f.Now()
				for i := 0; i < b.N; i++ {
					if err := r.router.Txn(f, writes); err != nil {
						b.Error(err)
						return
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(f.Now().Sub(start))/1e3/float64(b.N), "virt-us/op")
			})
		})
	}
}

// TestRouterTxnSteadyStateAllocs: once their keys have slots, a Put and a
// transaction over 1, 2 or 4 shards allocate nothing — the router keeps its
// participant lists and its DistTxn, whose child fibers come from the
// kernel's pool, and every store step below reuses the group's per-op
// state — and a Get allocates nothing and returns the last Put's bytes: it
// is a view of the shard's mirror, checked before anything yields. A value
// larger than a 4 KiB nvm page straddles one on every run and is read
// through the device's one assembly buffer (AllocsPerRun truncates the
// mean, so a path that allocates on only some runs must be taken on every
// one).
func TestRouterTxnSteadyStateAllocs(t *testing.T) {
	big := sweepConfig(4)
	big.SlotSize, big.SlotsPerShard, big.LogSize = 4608, 1, 24<<10
	for _, c := range []struct {
		name string
		cfg  Config
		size int
	}{
		{"small", sweepConfig(4), 48},
		{"page-straddling", big, 4200},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, c.cfg, nil, 0)
			put := bytes.Repeat([]byte{'p'}, c.size)
			spans := map[int][]Write{}
			for _, span := range []int{1, 2, 4} {
				spans[span] = spanWrites(span)
				for i := range spans[span] {
					spans[span][i].Data = bytes.Repeat([]byte{byte('0' + span)}, c.size)
				}
			}
			var err error
			keep := func(e error) {
				if e != nil && err == nil {
					err = e
				}
			}
			ops := []struct {
				name string
				do   func(f *sim.Fiber)
			}{
				{"span-1 Txn", func(f *sim.Fiber) { keep(r.router.Txn(f, spans[1])) }},
				{"span-2 Txn", func(f *sim.Fiber) { keep(r.router.Txn(f, spans[2])) }},
				{"span-4 Txn", func(f *sim.Fiber) { keep(r.router.Txn(f, spans[4])) }},
				{"Put", func(f *sim.Fiber) { keep(r.router.Put(f, 0, put)) }}, // last: Get reads it back
			}
			r.run(t, func(f *sim.Fiber) {
				// Past every window of the kernel's timing wheel, so its event
				// pool and heaps have peaked.
				for f.Now() < sim.Time(40*sim.Millisecond) {
					for _, op := range ops {
						op.do(f)
					}
				}
				for _, op := range ops {
					if allocs := testing.AllocsPerRun(100, func() { op.do(f) }); allocs != 0 {
						t.Errorf("Router %s: %v allocations, want 0", op.name, allocs)
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
				stale := false
				allocs := testing.AllocsPerRun(100, func() {
					got, err := r.router.Get(0)
					stale = stale || err != nil || !bytes.Equal(got, put)
				})
				if stale {
					t.Error("Router.Get did not return the last Put's bytes")
				}
				if allocs != 0 {
					t.Errorf("Router.Get: %v allocations, want 0", allocs)
				}
			})
		})
	}
}
