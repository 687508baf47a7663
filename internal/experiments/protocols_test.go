package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// canonicalProtocols is every protocol this repository registers. The
// conformance suite below iterates protocol.Names() dynamically, so a
// newly registered protocol is tested automatically — this list only
// guards against one silently disappearing from the registry.
var canonicalProtocols = []string{"bcast", "bcast-maj", "chain", "fanout", "naive"}

func TestProtocolRegistryComplete(t *testing.T) {
	names := protocol.Names()
	if len(names) != len(canonicalProtocols) {
		t.Fatalf("registry has %v, conformance suite expects %v — update canonicalProtocols", names, canonicalProtocols)
	}
	for i, want := range canonicalProtocols {
		if names[i] != want {
			t.Fatalf("registry has %v, conformance suite expects %v", names, canonicalProtocols)
		}
		if protocol.Describe(want) == "" {
			t.Fatalf("protocol %s has no description", want)
		}
	}
	if _, err := protocol.Build("nope", protocol.Env{}, protocol.Params{}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

// confCluster builds a 3-replica deployment running the named protocol,
// outside the experiment worker pool (nil arena = everything fresh).
func confCluster(t *testing.T, seed uint64, name string, p protocol.Params, faults *rdma.FaultPlan) *cluster {
	t.Helper()
	spec := testbed(nil, seed, 3, false)
	spec.Faults = faults
	p.MirrorSize = 64 << 10
	c, err := newCluster(spec, protocol.Named(name), p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return c
}

// drive runs fn as the sole driver fiber and fails the test if the
// simulation deadlocks instead of reaching StopRun.
func drive(t *testing.T, c *cluster, fn func(f *sim.Fiber) error) {
	t.Helper()
	if err := c.Run(60*sim.Second, "conformance-driver", fn); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolConformance runs one op script — replicated writes, group
// memcpy, group CAS, group flush — against every registered protocol and
// checks the outcome is the same on all of them: client and every replica
// mirror converge to identical bytes, CAS returns the original values,
// and the issued/completed counters balance.
func TestProtocolConformance(t *testing.T) {
	for _, name := range protocol.Names() {
		t.Run(name, func(t *testing.T) {
			c := confCluster(t, 1, name, protocol.Params{}, nil)
			g := c.group
			payload := bytes.Repeat([]byte("conform!"), 64) // 512 B
			drive(t, c, func(f *sim.Fiber) error {
				// Replicated durable writes at distinct offsets.
				for i := 0; i < 8; i++ {
					off := i * 1024
					if err := g.WriteLocal(off, payload); err != nil {
						return fmt.Errorf("WriteLocal %d: %w", i, err)
					}
					if err := g.Write(f, off, len(payload), true); err != nil {
						return fmt.Errorf("Write %d: %w", i, err)
					}
				}
				// Group memcpy: replicate a copy of block 0 into fresh space.
				if err := g.Memcpy(f, 0, 16<<10, len(payload), true); err != nil {
					return fmt.Errorf("Memcpy: %w", err)
				}
				// Group CAS on an 8-byte lock word, all members executing.
				lockOff := 32 << 10
				if err := g.WriteLocal(lockOff, make([]byte, 8)); err != nil {
					return err
				}
				if err := g.Write(f, lockOff, 8, true); err != nil {
					return fmt.Errorf("lock seed write: %w", err)
				}
				orig, err := g.CAS(f, lockOff, 0, 77, []bool{true, true, true})
				if err != nil {
					return fmt.Errorf("CAS: %w", err)
				}
				for i, v := range orig {
					if v != 0 {
						return fmt.Errorf("CAS member %d saw original %d, want 0", i, v)
					}
				}
				// Group flush over everything written so far.
				if err := g.Flush(f, 0, 34<<10); err != nil {
					return fmt.Errorf("Flush: %w", err)
				}
				// Quorum protocols complete before the slowest member's
				// apply; give stragglers time to drain before comparing.
				f.Sleep(2 * sim.Millisecond)
				return nil
			})

			if fl := g.InFlight(); fl != 0 {
				t.Fatalf("%d ops still in flight after script", fl)
			}
			issued, completed := g.Stats()
			if issued != completed || issued == 0 {
				t.Fatalf("issued=%d completed=%d, want equal and nonzero", issued, completed)
			}
			// Every replica mirror must match the client's, byte for byte.
			want, err := g.ViewLocal(0, 34<<10)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			for i, nic := range c.nics() {
				if err := nic.Memory().Read(0, got); err != nil {
					t.Fatalf("replica %d read: %v", i, err)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("replica %d mirror diverges from client", i)
				}
			}
			if got := want[32<<10]; got != 77 {
				t.Fatalf("lock word = %d after CAS, want 77", got)
			}
			g.Close()
		})
	}
}

// TestProtocolConformanceUnderFaults crashes a replica NIC mid-script with
// timeouts armed and requires every operation to resolve — success or a
// canonical op error — with no hangs, on every protocol.
func TestProtocolConformanceUnderFaults(t *testing.T) {
	for _, name := range protocol.Names() {
		t.Run(name, func(t *testing.T) {
			c := confCluster(t, 1, name, protocol.Params{OpTimeout: 200 * sim.Microsecond, MaxRetries: 1, RetryBackoff: 50 * sim.Microsecond},
				&rdma.FaultPlan{
					NICs: []rdma.NICFault{{Host: "server-1", At: sim.Time(0).Add(1 * sim.Millisecond), Down: true}},
				})
			g := c.group
			var ok, failed int
			drive(t, c, func(f *sim.Fiber) error {
				horizon := sim.Time(0).Add(3 * sim.Millisecond)
				for i := 0; f.Now() < horizon; i++ {
					err := g.Write(f, (i%16)*1024, 512, true)
					switch {
					case err == nil:
						ok++
					case protocol.IsOpError(err):
						failed++
						f.Sleep(100 * sim.Microsecond)
					default:
						return fmt.Errorf("op %d: non-op error %v", i, err)
					}
				}
				return nil
			})
			if ok == 0 {
				t.Fatal("no writes succeeded before the crash")
			}
			if fl := g.InFlight(); fl != 0 {
				t.Fatalf("%d ops unresolved after the script — timeout leak", fl)
			}
			// bcast-maj tolerates one dead member; every all-member
			// protocol must observe failures after the crash.
			if name != "bcast-maj" && failed == 0 {
				t.Fatalf("%s: crash produced no op failures (ok=%d)", name, ok)
			}
			if name == "bcast-maj" && failed != 0 {
				t.Fatalf("bcast-maj: %d writes failed, want quorum to absorb the crash", failed)
			}
			g.Close()
		})
	}
}

// TestProtocolClose checks teardown semantics on every protocol: in-flight
// operations fail with the canonical ErrClosed, later issues are rejected,
// and Close is idempotent.
func TestProtocolClose(t *testing.T) {
	for _, name := range protocol.Names() {
		t.Run(name, func(t *testing.T) {
			c := confCluster(t, 1, name, protocol.Params{}, nil)
			g := c.group
			drive(t, c, func(f *sim.Fiber) error {
				sig, err := g.WriteAsync(0, 512, true)
				if err != nil {
					return fmt.Errorf("WriteAsync: %w", err)
				}
				g.Close()
				if !sig.Fired() {
					return errors.New("in-flight op signal not fired by Close")
				}
				if !errors.Is(sig.Err(), protocol.ErrClosed) {
					return fmt.Errorf("in-flight op failed with %v, want ErrClosed", sig.Err())
				}
				if err := g.Write(f, 0, 512, true); !errors.Is(err, protocol.ErrClosed) {
					return fmt.Errorf("post-Close write returned %v, want ErrClosed", err)
				}
				if _, err := g.WriteAsync(0, 512, true); !errors.Is(err, protocol.ErrClosed) {
					return fmt.Errorf("post-Close async write returned %v, want ErrClosed", err)
				}
				g.Close() // idempotent
				return nil
			})
			if fl := g.InFlight(); fl != 0 {
				t.Fatalf("%d ops in flight after Close", fl)
			}
		})
	}
}

// TestProtocolCloseThenRebuild closes every protocol with writes still in
// flight and builds its successor over the same NICs, with a spare in
// member 1's place — what a failover does. Close must leave no QP or CQ
// live on any NIC the group used. The successor lays its rings out at the
// same device offsets, so it must not run any work the closed group
// posted but never executed: every write on it completes, and every
// member's mirror ends equal to the client's.
func TestProtocolCloseThenRebuild(t *testing.T) {
	const (
		depth  = 32 // the default window
		mirror = 64 << 10
		span   = 16 << 10 // the writes land in 16 1 KiB slots
	)
	for _, name := range protocol.Names() {
		t.Run(name, func(t *testing.T) {
			p := protocol.Params{OpTimeout: 200 * sim.Microsecond}
			c := confCluster(t, 1, name, p, nil)
			spare, err := c.Fabric.AddNIC("spare", c.Device("spare", mirror))
			if err != nil {
				t.Fatal(err)
			}
			env := c.Members("")
			next := env
			next.Replicas = []*rdma.NIC{env.Replicas[0], spare, env.Replicas[2]}
			p.MirrorSize = mirror
			var g2 protocol.Protocol
			drive(t, c, func(f *sim.Fiber) error {
				g := c.group
				for i := 0; i < depth+8; i++ {
					if err := g.Write(f, (i%16)*1024, 512, true); err != nil {
						return fmt.Errorf("write %d: %w", i, err)
					}
				}
				for i := 0; i < 4; i++ {
					if _, err := g.WriteAsync(i*1024, 512, true); err != nil {
						return fmt.Errorf("async write %d: %w", i, err)
					}
				}
				g.Close()
				for _, nic := range append([]*rdma.NIC{env.Client}, env.Replicas...) {
					if !nic.Idle() {
						return fmt.Errorf("%s: a QP or CQ is still live after Close", nic.Host())
					}
				}
				if g2, err = c.GroupOver(next, protocol.Named(name), p); err != nil {
					return err
				}
				for i := 0; i < 2*depth; i++ {
					off := (i % 16) * 1024
					if err := g2.WriteLocal(off, bytes.Repeat([]byte{byte(i + 1)}, 512)); err != nil {
						return err
					}
					if err := g2.Write(f, off, 512, true); err != nil {
						return fmt.Errorf("write %d on the rebuilt group: %w", i, err)
					}
				}
				// Quorum protocols complete before the slowest member's
				// apply; give stragglers time to land before comparing.
				f.Sleep(2 * sim.Millisecond)
				return nil
			})
			want, err := g2.ViewLocal(0, span)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, span)
			for i, nic := range next.Replicas {
				if err := nic.Memory().Read(0, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("member %d (%s) mirror diverges from the client's", i, nic.Host())
				}
			}
			g2.Close()
		})
	}
}

// TestProtocolRejectsBadRanges feeds every primitive of every protocol
// arguments outside the mirror — negative offsets and sizes included — and
// requires the canonical ErrBadArgument before anything is consumed: no
// window slot, no counter, and the group still works afterwards.
func TestProtocolRejectsBadRanges(t *testing.T) {
	const mirror = 64 << 10 // confCluster's
	for _, name := range protocol.Names() {
		t.Run(name, func(t *testing.T) {
			c := confCluster(t, 1, name, protocol.Params{}, nil)
			g := c.group
			exec := make([]bool, g.GroupSize())
			async := func(_ *sim.Signal, err error) error { return err }
			bad := []struct {
				what string
				call func(f *sim.Fiber) error
			}{
				{"WriteAsync negative size", func(*sim.Fiber) error { return async(g.WriteAsync(16, -8, false)) }},
				{"WriteAsync negative offset", func(*sim.Fiber) error { return async(g.WriteAsync(-8, 8, false)) }},
				{"WriteAsync past the end", func(*sim.Fiber) error { return async(g.WriteAsync(mirror-4, 8, true)) }},
				{"Write negative size", func(f *sim.Fiber) error { return g.Write(f, 16, -8, true) }},
				{"MemcpyAsync negative source", func(*sim.Fiber) error { return async(g.MemcpyAsync(-8, 0, 8, false)) }},
				{"MemcpyAsync negative destination", func(*sim.Fiber) error { return async(g.MemcpyAsync(0, -8, 8, false)) }},
				{"MemcpyAsync negative size", func(*sim.Fiber) error { return async(g.MemcpyAsync(64, 0, -8, true)) }},
				{"Memcpy destination past the end", func(f *sim.Fiber) error { return g.Memcpy(f, 0, mirror-4, 8, false) }},
				{"FlushAsync negative size", func(*sim.Fiber) error { return async(g.FlushAsync(64, -1)) }},
				{"Flush past the end", func(f *sim.Fiber) error { return g.Flush(f, mirror, 8) }},
				{"CAS negative offset", func(f *sim.Fiber) error { _, err := g.CAS(f, -8, 0, 1, exec); return err }},
				{"CAS past the end", func(f *sim.Fiber) error { _, err := g.CAS(f, mirror-4, 0, 1, exec); return err }},
				{"CAS short execute map", func(f *sim.Fiber) error { _, err := g.CAS(f, 0, 0, 1, exec[:1]); return err }},
				{"WriteLocal negative offset", func(*sim.Fiber) error { return g.WriteLocal(-1, make([]byte, 8)) }},
				{"ViewLocal past the end", func(*sim.Fiber) error { _, err := g.ViewLocal(mirror-4, 8); return err }},
				{"ViewLocal negative length", func(*sim.Fiber) error { _, err := g.ViewLocal(0, -1); return err }},
			}
			drive(t, c, func(f *sim.Fiber) error {
				for _, b := range bad {
					if err := b.call(f); !errors.Is(err, protocol.ErrBadArgument) {
						t.Errorf("%s: got %v, want ErrBadArgument", b.what, err)
					}
					if fl := g.InFlight(); fl != 0 {
						t.Errorf("%s: %d ops in flight afterwards — leaked window slot", b.what, fl)
					}
				}
				if issued, completed := g.Stats(); issued != 0 || completed != 0 {
					t.Errorf("rejected ops moved the counters: issued=%d completed=%d", issued, completed)
				}
				if err := g.WriteLocal(0, []byte("still ok")); err != nil {
					return err
				}
				if err := g.Write(f, 0, 8, true); err != nil {
					return fmt.Errorf("valid durable write after the rejected ones: %w", err)
				}
				return nil
			})
			g.Close()
		})
	}
}

// TestProtocolDeterminism runs the fault script twice per seed and
// requires identical virtual-time fingerprints: executed events, fabric
// messages/bytes/CQEs, and the op outcome tally.
func TestProtocolDeterminism(t *testing.T) {
	for _, name := range protocol.Names() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2, 42} {
				fp := func() string {
					c := confCluster(t, seed, name, protocol.Params{OpTimeout: 200 * sim.Microsecond, MaxRetries: 1, RetryBackoff: 50 * sim.Microsecond},
						&rdma.FaultPlan{
							NICs: []rdma.NICFault{{Host: "server-1", At: sim.Time(0).Add(1 * sim.Millisecond), Down: true}},
						})
					g := c.group
					var ok, failed int
					drive(t, c, func(f *sim.Fiber) error {
						horizon := sim.Time(0).Add(3 * sim.Millisecond)
						for i := 0; f.Now() < horizon; i++ {
							err := g.Write(f, (i%16)*1024, 512, true)
							switch {
							case err == nil:
								ok++
							case protocol.IsOpError(err):
								failed++
								f.Sleep(100 * sim.Microsecond)
							default:
								return fmt.Errorf("op %d: %v", i, err)
							}
						}
						return nil
					})
					msgs, wire := c.Fabric.Stats()
					s := fmt.Sprintf("events=%d msgs=%d wire=%d cqes=%d ok=%d failed=%d now=%d",
						c.Kernel.Executed(), msgs, wire, c.Fabric.CQEs(), ok, failed, c.Kernel.Now())
					g.Close()
					return s
				}
				a, b := fp(), fp()
				if a != b {
					t.Fatalf("seed %d not deterministic:\n  run1: %s\n  run2: %s", seed, a, b)
				}
			}
		})
	}
}

// TestProtocolFlushUnderFault is the durability half of the conformance
// bar: with a member crashing and restarting mid-script, every gFLUSH the
// client saw acknowledged must survive a subsequent power loss of all
// member devices on at least AcksNeeded(name) of them. A flush that "acks"
// while the crash leaves fewer live copies than the protocol's contract
// promises is a durability-contract violation, not a timing artifact.
func TestProtocolFlushUnderFault(t *testing.T) {
	const (
		ops     = 60
		opSize  = 64
		downAt  = 500 * sim.Microsecond
		upAgain = 900 * sim.Microsecond
	)
	for _, name := range protocol.Names() {
		t.Run(name, func(t *testing.T) {
			c := confCluster(t, 1, name, protocol.Params{OpTimeout: 100 * sim.Microsecond, MaxRetries: 1, RetryBackoff: 25 * sim.Microsecond},
				&rdma.FaultPlan{
					NICs: []rdma.NICFault{
						{Host: "server-1", At: sim.Time(0).Add(downAt), Down: true},
						{Host: "server-1", At: sim.Time(0).Add(upAgain), Down: false},
					},
				})
			g := c.group
			payload := func(i int) []byte {
				b := make([]byte, opSize)
				for j := range b {
					b[j] = byte(i>>8) ^ byte(i+j) ^ 0xA5
				}
				return b
			}
			acked := make([]bool, ops)
			var failed int
			drive(t, c, func(f *sim.Fiber) error {
				for i := 0; i < ops; i++ {
					off := i * opSize
					if err := g.WriteLocal(off, payload(i)); err != nil {
						return err
					}
					err := g.Write(f, off, opSize, false)
					if err == nil {
						err = g.Flush(f, off, opSize)
					}
					switch {
					case err == nil:
						acked[i] = true
					case protocol.IsOpError(err):
						failed++
					default:
						return fmt.Errorf("op %d: %w", i, err)
					}
					// Pace the script across the whole crash/restart window
					// so some ops land while the member is down.
					f.Sleep(20 * sim.Microsecond)
				}
				return nil
			})
			if fl := g.InFlight(); fl != 0 {
				t.Fatalf("%d ops unresolved after the script", fl)
			}
			g.Close()
			for _, m := range c.nics() {
				m.Memory().Crash()
			}
			need := protocol.AcksNeeded(name, len(c.nics()))
			ackedN := 0
			buf := make([]byte, opSize)
			for i := 0; i < ops; i++ {
				if !acked[i] {
					continue
				}
				ackedN++
				copies := 0
				for _, m := range c.nics() {
					if err := m.Memory().ReadDurable(i*opSize, buf); err != nil {
						t.Fatal(err)
					}
					if bytes.Equal(buf, payload(i)) {
						copies++
					}
				}
				if copies < need {
					t.Fatalf("acked flush %d durable on %d members, contract promises %d", i, copies, need)
				}
			}
			if ackedN == 0 {
				t.Fatal("no flush was ever acknowledged; durability contract untested")
			}
			if name != "bcast-maj" && failed == 0 {
				t.Fatalf("%s: outage window produced no failures (acked=%d)", name, ackedN)
			}
		})
	}
}

// TestProtocolCASNeverRetriedUnderTimeout pins the non-idempotence rule on
// every protocol: gCAS is never re-issued by the client library, even when
// it times out against a crashed member — a blind retry could observe its
// own first attempt's swap and report a false conflict. The write path's
// retry counter is exercised first so a silently dead counter cannot pass
// the test.
func TestProtocolCASNeverRetriedUnderTimeout(t *testing.T) {
	for _, name := range protocol.Names() {
		t.Run(name, func(t *testing.T) {
			c := confCluster(t, 1, name, protocol.Params{OpTimeout: 100 * sim.Microsecond, MaxRetries: 2, RetryBackoff: 25 * sim.Microsecond},
				&rdma.FaultPlan{
					NICs: []rdma.NICFault{{Host: "server-1", At: sim.Time(0).Add(300 * sim.Microsecond), Down: true}},
				})
			g := c.group
			exec := []bool{true, true, true}
			drive(t, c, func(f *sim.Fiber) error {
				// Seed the lock word while the group is healthy.
				if err := g.WriteLocal(0, make([]byte, 8)); err != nil {
					return err
				}
				if err := g.Write(f, 0, 8, true); err != nil {
					return fmt.Errorf("seed write: %w", err)
				}
				// Drive writes through the crash until the retry machinery
				// has provably fired (quorum protocols absorb the crash and
				// never retry — that is their contract, move on).
				deadline := f.Now().Add(2 * sim.Millisecond)
				for g.Retried() == 0 && name != "bcast-maj" {
					if f.Now() > deadline {
						return fmt.Errorf("no write retry observed by %v", f.Now())
					}
					err := g.Write(f, 1024, 512, true)
					if err != nil && !protocol.IsOpError(err) {
						return err
					}
					f.Sleep(50 * sim.Microsecond)
				}
				base := g.Retried()
				// CAS into the outage: each attempt must resolve — success
				// or op error — without ever bumping the retry counter.
				for i := 0; i < 8; i++ {
					_, err := g.CAS(f, 0, uint64(i), uint64(i+1), exec)
					if err != nil && !protocol.IsOpError(err) {
						return fmt.Errorf("CAS %d: %w", i, err)
					}
					if got := g.Retried(); got != base {
						return fmt.Errorf("CAS %d: retry counter moved %d -> %d; gCAS must never be re-issued", i, base, got)
					}
					f.Sleep(50 * sim.Microsecond)
				}
				return nil
			})
			if fl := g.InFlight(); fl != 0 {
				t.Fatalf("%d ops unresolved after the script", fl)
			}
			g.Close()
		})
	}
}

// TestProtocolPerMemberPrefix checks the property the transaction layer's
// pipelined steps rest on: every member applies AND flushes group ops in
// the order they were posted, and a loss wedges a member's stream rather
// than letting later ops overtake. The script keeps the window full of
// tagged pairs — a payload op into region i (a gWRITE, or a gMEMCPY from a
// pre-replicated source), then a gWRITE of marker i — while one member's
// NIC crashes at a seeded instant; afterwards every member loses power.
// On each durable image, marker i present must imply markers 1..i and
// regions 1..i present and intact: the image is a prefix of what was
// posted, whatever the protocol's topology or ack rule.
func TestProtocolPerMemberPrefix(t *testing.T) {
	const (
		pairs     = 48 // 96 ops against a window of 30
		regionLen = 256
		srcBase   = 16 << 10 // gMEMCPY sources, replicated before the crash
		markBase  = 32 << 10 // marker i is the 8 bytes at markBase + 8·i
		cases     = 6        // seeded (victim, instant) draws per protocol and payload op
	)
	region := func(i int) []byte {
		b := make([]byte, regionLen)
		for j := range b {
			b[j] = byte(i*31+j) | 1
		}
		return b
	}
	marker := func(i int) []byte { return []byte(fmt.Sprintf("mark%04d", i)) }

	// script posts the pairs; crash, when non-nil, is armed as the first op
	// goes out. It returns how long the posting phase took.
	script := func(t *testing.T, c *cluster, memcpy bool, crash func()) (took sim.Duration) {
		g := c.group
		drive(t, c, func(f *sim.Fiber) error {
			if memcpy {
				for i := 1; i <= pairs; i++ {
					if err := g.WriteLocal(srcBase+i*regionLen, region(i)); err != nil {
						return err
					}
				}
				if err := g.Write(f, srcBase, (pairs+1)*regionLen, true); err != nil {
					return fmt.Errorf("source write: %w", err)
				}
			}
			var sigs []*sim.Signal
			oldest := 0
			// post issues one op, waiting for the oldest outstanding one
			// whenever the window is full. Ops that fail to post or time out
			// after the crash are part of the scenario.
			post := func(issue func() (*sim.Signal, error)) error {
				for {
					sig, err := issue()
					switch {
					case err == nil:
						sigs = append(sigs, sig)
						return nil
					case errors.Is(err, protocol.ErrTooManyInFlight) && oldest < len(sigs):
						_ = f.Await(sigs[oldest])
						oldest++
					case protocol.IsOpError(err):
						return nil
					default:
						return err
					}
				}
			}
			start := f.Now()
			if crash != nil {
				crash()
			}
			for i := 1; i <= pairs; i++ {
				off := i * regionLen
				var first func() (*sim.Signal, error)
				if memcpy {
					first = func() (*sim.Signal, error) { return g.MemcpyAsync(srcBase+off, off, regionLen, true) }
				} else {
					if err := g.WriteLocal(off, region(i)); err != nil {
						return err
					}
					first = func() (*sim.Signal, error) { return g.WriteAsync(off, regionLen, true) }
				}
				if err := post(first); err != nil {
					return fmt.Errorf("payload op %d: %w", i, err)
				}
				if err := g.WriteLocal(markBase+8*i, marker(i)); err != nil {
					return err
				}
				if err := post(func() (*sim.Signal, error) { return g.WriteAsync(markBase+8*i, 8, true) }); err != nil {
					return fmt.Errorf("marker %d: %w", i, err)
				}
			}
			for _, sig := range sigs[oldest:] {
				_ = f.Await(sig)
			}
			took = f.Now().Sub(start)
			return nil
		})
		return took
	}

	for _, name := range protocol.Names() {
		for _, memcpy := range []bool{false, true} {
			op := map[bool]string{false: "gWRITE", true: "gMEMCPY"}[memcpy]
			t.Run(name+"/"+op, func(t *testing.T) {
				params := protocol.Params{OpTimeout: 200 * sim.Microsecond}
				healthy := script(t, confCluster(t, 1, name, params, nil), memcpy, nil)
				rng := rand.New(rand.NewSource(20261002))
				partial := 0
				for n := 0; n < cases; n++ {
					victim := rng.Intn(3)
					at := sim.Duration(rng.Int63n(int64(healthy)))
					c := confCluster(t, uint64(n+1), name, params, nil)
					script(t, c, memcpy, func() {
						c.Kernel.AfterFunc(at, func() { c.nics()[victim].SetDown(true) }, nil)
					})
					g := c.group
					if fl := g.InFlight(); fl != 0 {
						t.Fatalf("%d ops unresolved after the script", fl)
					}
					g.Close()
					for m, nic := range c.nics() {
						nic.Memory().Crash()
						img := make([]byte, 64<<10)
						if err := nic.Memory().Read(0, img); err != nil {
							t.Fatal(err)
						}
						last := 0
						for i := 1; i <= pairs; i++ {
							if bytes.Equal(img[markBase+8*i:markBase+8*i+8], marker(i)) {
								last = i
							}
						}
						for i := 1; i <= last; i++ {
							if !bytes.Equal(img[markBase+8*i:markBase+8*i+8], marker(i)) {
								t.Errorf("member %d down at +%v: member %d holds marker %d but not marker %d", victim, at, m, last, i)
							}
							if !bytes.Equal(img[i*regionLen:(i+1)*regionLen], region(i)) {
								t.Errorf("member %d down at +%v: member %d holds marker %d but region %d is not intact", victim, at, m, last, i)
							}
						}
						if last > 0 && last < pairs {
							partial++
						}
					}
				}
				if partial == 0 {
					t.Errorf("no member was ever caught mid-stream in %d cases; the crash instants miss the run", cases)
				}
			})
		}
	}
}
