package rdma

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"hyperloop/internal/nvm"
	"hyperloop/internal/sim"
)

// testPair wires two hosts with one QP each and returns everything a test
// needs. Ring and buffer layout per host:
//
//	[0, 64*32)      send WQE ring (32 slots)
//	[4096, 8192)    scratch buffer A
//	[8192, 12288)   scratch buffer B
const (
	ringOff   = 0
	ringSlots = 32
	bufA      = 4096
	bufB      = 8192
	memSize   = 1 << 16
)

type testPair struct {
	k        *sim.Kernel
	fab      *Fabric
	na, nb   *NIC
	qa, qb   *QP
	mra, mrb *MemoryRegion
}

func newTestPair(t *testing.T) *testPair {
	t.Helper()
	k := sim.NewKernel(1)
	fab := NewFabric(k, DefaultConfig())
	da := nvm.NewDevice("a", memSize)
	db := nvm.NewDevice("b", memSize)
	na, err := fab.AddNIC("a", da)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := fab.AddNIC("b", db)
	if err != nil {
		t.Fatal(err)
	}
	mra, err := na.RegisterMR(0, memSize, AccessLocalWrite|AccessRemoteRead|AccessRemoteWrite|AccessRemoteAtomic)
	if err != nil {
		t.Fatal(err)
	}
	mrb, err := nb.RegisterMR(0, memSize, AccessLocalWrite|AccessRemoteRead|AccessRemoteWrite|AccessRemoteAtomic)
	if err != nil {
		t.Fatal(err)
	}
	qa, err := na.CreateQP(QPConfig{SendRingOff: ringOff, SendSlots: ringSlots, SendCQ: na.CreateCQ(), RecvCQ: na.CreateCQ()})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := nb.CreateQP(QPConfig{SendRingOff: ringOff, SendSlots: ringSlots, SendCQ: nb.CreateCQ(), RecvCQ: nb.CreateCQ()})
	if err != nil {
		t.Fatal(err)
	}
	qa.Connect(qb)
	return &testPair{k: k, fab: fab, na: na, nb: nb, qa: qa, qb: qb, mra: mra, mrb: mrb}
}

func (p *testPair) run(t *testing.T) {
	t.Helper()
	if err := p.k.Run(); err != nil {
		t.Fatalf("kernel run: %v", err)
	}
}

func TestWQEEncodeDecodeRoundTrip(t *testing.T) {
	f := func(op uint8, flags uint8, imm uint32, local, length, remote, cmp, swap uint64, a1, a2 uint32, wrid uint64) bool {
		w := WQE{
			Opcode: Opcode(op%9 + 1), Flags: flags, Imm: imm,
			Local: local, Len: length, Remote: remote,
			Compare: cmp, Swap: swap, Aux1: a1, Aux2: a2, WRID: wrid,
		}
		var buf [WQESize]byte
		if err := w.Encode(buf[:]); err != nil {
			return false
		}
		got, err := DecodeWQE(buf[:])
		return err == nil && got == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestWQEBufferTooSmall(t *testing.T) {
	w := WQE{Opcode: OpNop}
	if err := w.Encode(make([]byte, 10)); err == nil {
		t.Fatal("expected encode error")
	}
	if _, err := DecodeWQE(make([]byte, 10)); err == nil {
		t.Fatal("expected decode error")
	}
	if err := w.EncodeDesc(make([]byte, 3)); err == nil {
		t.Fatal("expected desc encode error")
	}
}

func TestSlotAddrWraps(t *testing.T) {
	if SlotAddr(100, 4, 5) != 100+1*WQESize {
		t.Fatalf("SlotAddr wrap wrong: %d", SlotAddr(100, 4, 5))
	}
	if DescAddr(0, 8, 2) != 2*WQESize+wqeDescOff {
		t.Fatalf("DescAddr wrong")
	}
}

func TestOpcodeStatusStrings(t *testing.T) {
	ops := []Opcode{OpNop, OpSend, OpRecv, OpWrite, OpWriteImm, OpCAS, OpWait, OpMemcpy, OpFlush, Opcode(99)}
	for _, o := range ops {
		if o.String() == "" {
			t.Fatalf("empty opcode string for %d", uint8(o))
		}
	}
	for _, s := range []Status{StatusSuccess, StatusRemoteAccessError, StatusLocalError, StatusFlushed, Status(42)} {
		if s.String() == "" {
			t.Fatal("empty status string")
		}
	}
}

func TestRDMAWriteDeliversData(t *testing.T) {
	p := newTestPair(t)
	data := []byte("replicate me to host b, please")
	if err := p.na.Memory().Write(bufA, data); err != nil {
		t.Fatal(err)
	}
	if _, err := p.qa.PostSend(WQE{
		Opcode: OpWrite, Flags: FlagSignaled,
		Local: bufA, Len: uint64(len(data)), Remote: bufB, Aux1: p.mrb.RKey, WRID: 7,
	}); err != nil {
		t.Fatal(err)
	}
	sent := record(p.qa.SendCQ())
	p.run(t)
	got := make([]byte, len(data))
	if err := p.nb.Memory().Read(bufB, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("remote memory = %q, want %q", got, data)
	}
	cqes := *sent
	if len(cqes) != 1 || cqes[0].Status != StatusSuccess || cqes[0].WRID != 7 {
		t.Fatalf("cqes = %+v", cqes)
	}
	if cqes[0].At <= 0 {
		t.Fatal("completion at time zero — no latency modelled")
	}
}

func TestRDMAWriteIsNotDurableUntilFlush(t *testing.T) {
	p := newTestPair(t)
	data := []byte("volatile until flushed")
	_ = p.na.Memory().Write(bufA, data)
	if _, err := p.qa.PostSend(WQE{
		Opcode: OpWrite, Flags: FlagSignaled,
		Local: bufA, Len: uint64(len(data)), Remote: bufB, Aux1: p.mrb.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	p.run(t)
	durable := make([]byte, len(data))
	_ = p.nb.Memory().ReadDurable(bufB, durable)
	if bytes.Equal(durable, data) {
		t.Fatal("RDMA WRITE became durable without a flush")
	}

	// Now issue an RDMA FLUSH (the 0-byte READ trick) and re-check.
	if _, err := p.qa.PostSend(WQE{
		Opcode: OpFlush, Flags: FlagSignaled, Remote: bufB, Len: 0, Aux1: p.mrb.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	p.run(t)
	_ = p.nb.Memory().ReadDurable(bufB, durable)
	if !bytes.Equal(durable, data) {
		t.Fatal("flush did not persist RDMA WRITE data")
	}
}

func TestSendConsumesRecvAndScatters(t *testing.T) {
	p := newTestPair(t)
	// Scatter a 12-byte message across two SGEs on host b.
	p.qb.PostRecv(RecvWQE{WRID: 9, SGEs: []SGE{{Addr: bufB, Len: 4}, {Addr: bufB + 100, Len: 100}}})
	recvd := record(p.qb.RecvCQ())
	msg := []byte("head|tail+++")
	_ = p.na.Memory().Write(bufA, msg)
	if _, err := p.qa.PostSend(WQE{
		Opcode: OpSend, Flags: FlagSignaled, Local: bufA, Len: uint64(len(msg)),
	}); err != nil {
		t.Fatal(err)
	}
	p.run(t)
	head := make([]byte, 4)
	tail := make([]byte, 8)
	_ = p.nb.Memory().Read(bufB, head)
	_ = p.nb.Memory().Read(bufB+100, tail)
	if string(head) != "head" || string(tail) != "|tail+++" {
		t.Fatalf("scatter wrong: %q %q", head, tail)
	}
	cqes := *recvd
	if len(cqes) != 1 || cqes[0].WRID != 9 || cqes[0].ByteLen != len(msg) {
		t.Fatalf("recv cqes = %+v", cqes)
	}
	if p.qb.recvQueue.Len() != 0 {
		t.Fatal("recv not consumed")
	}
}

func TestSendRNRRetries(t *testing.T) {
	p := newTestPair(t)
	msg := []byte("late receiver")
	_ = p.na.Memory().Write(bufA, msg)
	if _, err := p.qa.PostSend(WQE{Opcode: OpSend, Flags: FlagSignaled, Local: bufA, Len: uint64(len(msg))}); err != nil {
		t.Fatal(err)
	}
	// Post the receive only after the message has arrived and hit RNR.
	p.k.After(50*sim.Microsecond, func() {
		p.qb.PostRecv(RecvWQE{WRID: 1, SGEs: []SGE{{Addr: bufB, Len: 64}}})
	})
	p.run(t)
	if got := p.qb.RecvCQ().Total(); got != 1 {
		t.Fatalf("recv completions = %d, want 1 (RNR retry failed)", got)
	}
}

func TestWriteWithImmNotifiesReceiver(t *testing.T) {
	p := newTestPair(t)
	p.qb.PostRecv(RecvWQE{WRID: 5})
	recvd := record(p.qb.RecvCQ())
	data := []byte("ack payload")
	_ = p.na.Memory().Write(bufA, data)
	if _, err := p.qa.PostSend(WQE{
		Opcode: OpWriteImm, Flags: FlagSignaled, Imm: 0xBEEF,
		Local: bufA, Len: uint64(len(data)), Remote: bufB, Aux1: p.mrb.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	p.run(t)
	got := make([]byte, len(data))
	_ = p.nb.Memory().Read(bufB, got)
	if !bytes.Equal(got, data) {
		t.Fatal("imm write payload missing")
	}
	cqes := *recvd
	if len(cqes) != 1 || cqes[0].Imm != 0xBEEF || cqes[0].WRID != 5 {
		t.Fatalf("imm cqe = %+v", cqes)
	}
}

func TestCASSwapsAndReturnsOriginal(t *testing.T) {
	p := newTestPair(t)
	var init [8]byte
	binary.LittleEndian.PutUint64(init[:], 111)
	_ = p.nb.Memory().Write(bufB, init[:])

	post := func(compare, swap uint64) {
		t.Helper()
		if _, err := p.qa.PostSend(WQE{
			Opcode: OpCAS, Flags: FlagSignaled,
			Local: bufA, Remote: bufB, Aux1: p.mrb.RKey, Compare: compare, Swap: swap,
		}); err != nil {
			t.Fatal(err)
		}
		p.run(t)
	}

	post(111, 222) // matches: swap happens
	cur, _ := p.nb.Memory().Slice(bufB, 8)
	if binary.LittleEndian.Uint64(cur) != 222 {
		t.Fatalf("CAS did not swap: %d", binary.LittleEndian.Uint64(cur))
	}
	orig, _ := p.na.Memory().Slice(bufA, 8)
	if binary.LittleEndian.Uint64(orig) != 111 {
		t.Fatalf("CAS original = %d, want 111", binary.LittleEndian.Uint64(orig))
	}

	post(999, 333) // mismatch: no swap, returns current value
	cur, _ = p.nb.Memory().Slice(bufB, 8)
	if binary.LittleEndian.Uint64(cur) != 222 {
		t.Fatal("CAS swapped on mismatch")
	}
	orig, _ = p.na.Memory().Slice(bufA, 8)
	if binary.LittleEndian.Uint64(orig) != 222 {
		t.Fatalf("CAS mismatch original = %d, want 222", binary.LittleEndian.Uint64(orig))
	}
}

// TestCASRepliesRecyclePoolBuffers: the responder's 8-byte CAS reply is a
// pool buffer that the requester hands back, so a run of CAS ops reuses
// one buffer instead of adding one to the payload pool per op (a reply
// built outside the pool was kept there forever).
func TestCASRepliesRecyclePoolBuffers(t *testing.T) {
	p := newTestPair(t)
	for i := 0; i < 1000; i++ {
		if _, err := p.qa.PostSend(WQE{
			Opcode: OpCAS, Flags: FlagSignaled,
			Local: bufA, Remote: bufB, Aux1: p.mrb.RKey, Compare: uint64(i), Swap: uint64(i + 1),
		}); err != nil {
			t.Fatal(err)
		}
		p.run(t)
	}
	if got := p.qa.SendCQ().Total(); got != 1000 {
		t.Fatalf("%d of 1000 CAS ops completed", got)
	}
	for c, bufs := range p.fab.bufs.classes {
		if len(bufs) > 2 {
			t.Errorf("pool class %d holds %d buffers after 1000 CAS ops, want at most 2", c, len(bufs))
		}
	}
}

func TestMemcpyLocal(t *testing.T) {
	p := newTestPair(t)
	data := []byte("copy within one host's NVM")
	_ = p.na.Memory().Write(bufA, data)
	if _, err := p.qa.PostSend(WQE{
		Opcode: OpMemcpy, Flags: FlagSignaled,
		Local: bufA, Len: uint64(len(data)), Remote: bufA + 1000,
	}); err != nil {
		t.Fatal(err)
	}
	p.run(t)
	got := make([]byte, len(data))
	_ = p.na.Memory().Read(bufA+1000, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("memcpy = %q", got)
	}
}

func TestRemoteAccessViolationsError(t *testing.T) {
	k := sim.NewKernel(1)
	fab := NewFabric(k, DefaultConfig())
	na, _ := fab.AddNIC("a", nvm.NewDevice("a", memSize))
	nb, _ := fab.AddNIC("b", nvm.NewDevice("b", memSize))
	// Register only narrow windows on b: one read-only, one write-only.
	mrb, err := nb.RegisterMR(bufB, 128, AccessRemoteRead)
	if err != nil {
		t.Fatal(err)
	}
	mrw, err := nb.RegisterMR(bufB+256, 128, AccessRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	qa, _ := na.CreateQP(QPConfig{SendRingOff: ringOff, SendSlots: ringSlots, SendCQ: na.CreateCQ(), RecvCQ: na.CreateCQ()})
	qb, _ := nb.CreateQP(QPConfig{SendRingOff: ringOff, SendSlots: ringSlots, SendCQ: nb.CreateCQ(), RecvCQ: nb.CreateCQ()})
	qa.Connect(qb)
	sent := record(qa.SendCQ())

	cases := []WQE{
		// Write to read-only MR.
		{Opcode: OpWrite, Flags: FlagSignaled, Local: bufA, Len: 8, Remote: bufB, Aux1: mrb.RKey},
		// Write outside the writable window.
		{Opcode: OpWrite, Flags: FlagSignaled, Local: bufA, Len: 8, Remote: bufB + 1000, Aux1: mrw.RKey},
		// Unknown rkey.
		{Opcode: OpWrite, Flags: FlagSignaled, Local: bufA, Len: 8, Remote: bufB + 256, Aux1: 999},
		// CAS without atomic rights.
		{Opcode: OpCAS, Flags: FlagSignaled, Local: bufA, Remote: bufB, Aux1: mrb.RKey},
	}
	for i, w := range cases {
		if _, err := qa.PostSend(w); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if cqes := (*sent)[i:]; len(cqes) != 1 || cqes[0].Status != StatusRemoteAccessError {
			t.Fatalf("case %d: cqes = %+v, want remote access error", i, cqes)
		}
	}
}

func TestWaitBlocksUntilCompletionThenEnables(t *testing.T) {
	p := newTestPair(t)
	// On host b, pre-post (deferred) a WRITE back to host a, gated by a
	// WAIT on b's recv CQ — a one-hop HyperLoop forwarding chain.
	reply := []byte("auto-forwarded by NIC")
	_ = p.nb.Memory().Write(bufB+500, reply)
	if _, err := p.qb.PostSend(WQE{
		Opcode: OpWait, Flags: FlagOwned, Imm: 1, Aux1: p.qb.RecvCQ().CQN(), Aux2: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.qb.PostSendDeferred(WQE{
		Opcode: OpWrite, Flags: FlagSignaled,
		Local: bufB + 500, Len: uint64(len(reply)), Remote: bufA + 500, Aux1: p.mra.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	p.qb.Doorbell()
	// Run: nothing should fire yet (no completion on b's recv CQ).
	p.run(t)
	got := make([]byte, len(reply))
	_ = p.na.Memory().Read(bufA+500, got)
	if bytes.Equal(got, reply) {
		t.Fatal("WAIT-gated WQE executed before trigger")
	}

	// Now send a message from a to b; its recv completion must trigger
	// the WAIT, enabling the WRITE that flows back to a.
	p.qb.PostRecv(RecvWQE{WRID: 1, SGEs: []SGE{{Addr: bufB + 600, Len: 64}}})
	_ = p.na.Memory().Write(bufA+600, []byte("trigger"))
	if _, err := p.qa.PostSend(WQE{Opcode: OpSend, Local: bufA + 600, Len: 7}); err != nil {
		t.Fatal(err)
	}
	p.run(t)
	_ = p.na.Memory().Read(bufA+500, got)
	if !bytes.Equal(got, reply) {
		t.Fatalf("WAIT chain did not forward: %q", got)
	}
}

// TestDeferredWQEStallsQueue: a WQE posted without ownership stalls the
// send queue, owned work behind it included, until a WAIT enables it. The
// WAIT enables exactly the one WQE after it, so a second deferred WQE goes
// on stalling the owned NOP behind it.
func TestDeferredWQEStallsQueue(t *testing.T) {
	p := newTestPair(t)
	_ = p.na.Memory().Write(bufA, []byte{1, 2, 3, 4})
	if _, err := p.qa.PostSend(WQE{Opcode: OpWait, Imm: 1, Aux1: p.qa.RecvCQ().CQN(), Aux2: 1}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []WQE{
		{Opcode: OpWrite, Flags: FlagSignaled, WRID: 1, Local: bufA, Len: 4, Remote: bufB, Aux1: p.mrb.RKey},
		{Opcode: OpNop, Flags: FlagSignaled, WRID: 2},
	} {
		if _, err := p.qa.PostSendDeferred(w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.qa.PostSend(WQE{Opcode: OpNop, Flags: FlagSignaled, WRID: 3}); err != nil {
		t.Fatal(err)
	}
	sent := record(p.qa.SendCQ())
	p.run(t)
	if len(*sent) != 0 {
		t.Fatalf("completions %v before the WAIT's trigger, want none", *sent)
	}

	// One SEND from b completes on a's recv CQ: the WAIT enables the WRITE.
	p.qa.PostRecv(RecvWQE{WRID: 1})
	if _, err := p.qb.PostSend(WQE{Opcode: OpSend}); err != nil {
		t.Fatal(err)
	}
	p.run(t)
	if len(*sent) != 1 || (*sent)[0].WRID != 1 || (*sent)[0].Status != StatusSuccess {
		t.Fatalf("completions %v, want the enabled WRITE alone", *sent)
	}
	got := make([]byte, 4)
	_ = p.nb.Memory().Read(bufB, got)
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("enabled WRITE delivered %v", got)
	}
}

// TestRemoteDescriptorPatchRetargetsWQE is HyperLoop's remote work request
// manipulation (§4.1): b pre-posts a WAIT and a deferred WRITE, a's SEND
// scatters a new descriptor straight into that WRITE's ring slot, and the
// receive completion fires the WAIT, which enables the patched WRITE.
func TestRemoteDescriptorPatchRetargetsWQE(t *testing.T) {
	p := newTestPair(t)
	_ = p.nb.Memory().Write(bufB+64, []byte("patched payload"))
	if _, err := p.qb.PostSend(WQE{Opcode: OpWait, Imm: 1, Aux1: p.qb.RecvCQ().CQN(), Aux2: 1}); err != nil {
		t.Fatal(err)
	}
	seq, err := p.qb.PostSendDeferred(WQE{
		Opcode: OpWrite, Flags: FlagSignaled, Local: bufB, Len: 4, Remote: bufA, Aux1: p.mra.RKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.qb.PostRecv(RecvWQE{SGEs: []SGE{{Addr: DescAddr(ringOff, ringSlots, seq), Len: DescLen}}})

	var desc [DescLen]byte
	if err := (&WQE{
		Opcode: OpWrite, Flags: FlagSignaled,
		Local: bufB + 64, Len: 15, Remote: bufA + 64, Aux1: p.mra.RKey,
	}).EncodeDesc(desc[:]); err != nil {
		t.Fatal(err)
	}
	_ = p.na.Memory().Write(bufA, desc[:])
	if _, err := p.qa.PostSend(WQE{Opcode: OpSend, Local: bufA, Len: DescLen}); err != nil {
		t.Fatal(err)
	}
	p.run(t)
	got := make([]byte, 15)
	_ = p.na.Memory().Read(bufA+64, got)
	if string(got) != "patched payload" {
		t.Fatalf("patched WQE wrote %q", got)
	}
	if p.qb.SendCQ().Total() != 1 {
		t.Fatalf("b's send CQ total %d, want the one patched WRITE", p.qb.SendCQ().Total())
	}
}

func TestSendQueueFull(t *testing.T) {
	p := newTestPair(t)
	for i := 0; i < ringSlots; i++ {
		if _, err := p.qb.PostSendDeferred(WQE{Opcode: OpNop}); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if _, err := p.qb.PostSendDeferred(WQE{Opcode: OpNop}); err != ErrSendQueueFull {
		t.Fatalf("err = %v, want ErrSendQueueFull", err)
	}
}

func TestRingWrapsAcrossManyOps(t *testing.T) {
	p := newTestPair(t)
	const ops = ringSlots * 3
	done := 0
	p.k.Spawn("driver", func(f *sim.Fiber) {
		for i := 0; i < ops; i++ {
			var data [8]byte
			binary.LittleEndian.PutUint64(data[:], uint64(i))
			if err := p.na.Memory().Write(bufA+8*i, data[:]); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			sig := sim.NewSignal()
			p.qa.SendCQ().SetDrainHandler(func(es []CQE) {
				for _, e := range es {
					if e.Status != StatusSuccess {
						t.Errorf("op failed: %+v", e)
					}
					done++
				}
				sig.Fire(nil)
			})
			if _, err := p.qa.PostSend(WQE{
				Opcode: OpWrite, Flags: FlagSignaled, Local: uint64(bufA + 8*i), Len: 8,
				Remote: uint64(bufB + 8*i), Aux1: p.mrb.RKey,
			}); err != nil {
				t.Errorf("post %d: %v", i, err)
				return
			}
			if err := f.Await(sig); err != nil {
				t.Errorf("await %d: %v", i, err)
			}
		}
	})
	p.run(t)
	if done != ops {
		t.Fatalf("completed %d ops, want %d", done, ops)
	}
	for i := 0; i < ops; i++ {
		b, _ := p.nb.Memory().Slice(bufB+8*i, 8)
		if binary.LittleEndian.Uint64(b) != uint64(i) {
			t.Fatalf("op %d payload wrong", i)
		}
	}
}

func TestFIFOOrderingWriteThenSend(t *testing.T) {
	// A WRITE posted before a SEND on the same QP must land first, even
	// with jitter — the invariant HyperLoop's WAIT chains depend on.
	for seed := uint64(1); seed <= 20; seed++ {
		k := sim.NewKernel(seed)
		cfg := DefaultConfig()
		cfg.JitterFrac = 0.5 // aggressive jitter to provoke reordering bugs
		fab := NewFabric(k, cfg)
		na, _ := fab.AddNIC("a", nvm.NewDevice("a", memSize))
		nb, _ := fab.AddNIC("b", nvm.NewDevice("b", memSize))
		mrb, _ := nb.RegisterMR(0, memSize, AccessRemoteWrite)
		qa, _ := na.CreateQP(QPConfig{SendRingOff: ringOff, SendSlots: ringSlots, SendCQ: na.CreateCQ(), RecvCQ: na.CreateCQ()})
		qb, _ := nb.CreateQP(QPConfig{SendRingOff: ringOff, SendSlots: ringSlots, SendCQ: nb.CreateCQ(), RecvCQ: nb.CreateCQ()})
		qa.Connect(qb)

		var sawDataAtRecv bool
		qb.RecvCQ().SetDrainHandler(func([]CQE) {
			b, _ := nb.Memory().Slice(bufB, 4)
			sawDataAtRecv = string(b) == "DATA"
		})
		qb.PostRecv(RecvWQE{SGEs: []SGE{{Addr: bufB + 100, Len: 16}}})
		_ = na.Memory().Write(bufA, []byte("DATA"))
		// Large WRITE then tiny SEND: jitter would reorder if unclamped.
		if _, err := qa.PostSend(WQE{Opcode: OpWrite, Local: bufA, Len: 4, Remote: bufB, Aux1: mrb.RKey}); err != nil {
			t.Fatal(err)
		}
		if _, err := qa.PostSend(WQE{Opcode: OpSend, Local: bufA, Len: 1}); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !sawDataAtRecv {
			t.Fatalf("seed %d: SEND overtook WRITE", seed)
		}
	}
}

func TestDownNICDropsTraffic(t *testing.T) {
	p := newTestPair(t)
	p.nb.SetDown(true)
	var got []CQE
	p.qa.SendCQ().SetDrainHandler(func(es []CQE) { got = append(got, es...) })
	_ = p.na.Memory().Write(bufA, []byte{1})
	if _, err := p.qa.PostSend(WQE{
		Opcode: OpWrite, Flags: FlagSignaled, Local: bufA, Len: 1, Remote: bufB, Aux1: p.mrb.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	p.run(t)
	// The message is lost, but the sender is not hung: the ack timeout
	// surfaces exactly one error completion.
	if len(got) != 1 {
		t.Fatalf("want 1 completion, got %d", len(got))
	}
	if got[0].Status != StatusTimeout {
		t.Fatalf("want TIMEOUT completion, got %v", got[0].Status)
	}
	if deadline := sim.Time(0).Add(ackTimeout); got[0].At < deadline {
		t.Fatalf("completion at %v, before the ack deadline %v", got[0].At, deadline)
	}
	if !p.nb.Down() {
		t.Fatal("down flag lost")
	}
}

func TestMRRegistrationBounds(t *testing.T) {
	k := sim.NewKernel(1)
	fab := NewFabric(k, DefaultConfig())
	n, _ := fab.AddNIC("x", nvm.NewDevice("x", 1024))
	if _, err := n.RegisterMR(512, 1024, AccessRemoteRead); err == nil {
		t.Fatal("oversized MR registered")
	}
	if _, err := n.CreateQP(QPConfig{SendRingOff: 0, SendSlots: 100, SendCQ: n.CreateCQ(), RecvCQ: n.CreateCQ()}); err == nil {
		t.Fatal("oversized ring accepted")
	}
	if _, err := n.CreateQP(QPConfig{SendRingOff: 0, SendSlots: 0, SendCQ: n.CreateCQ(), RecvCQ: n.CreateCQ()}); err == nil {
		t.Fatal("zero-slot ring accepted")
	}
	if _, err := n.CreateQP(QPConfig{SendRingOff: 0, SendSlots: 1}); err == nil {
		t.Fatal("QP without CQs accepted")
	}
	if _, err := fab.AddNIC("x", nvm.NewDevice("y", 64)); err == nil {
		t.Fatal("duplicate NIC accepted")
	}
}

func TestFabricStats(t *testing.T) {
	p := newTestPair(t)
	_ = p.na.Memory().Write(bufA, make([]byte, 1024))
	if _, err := p.qa.PostSend(WQE{
		Opcode: OpWrite, Flags: FlagSignaled, Local: bufA, Len: 1024, Remote: bufB, Aux1: p.mrb.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	p.run(t)
	msgs, wire := p.fab.Stats()
	if msgs < 2 { // write + ack
		t.Fatalf("messages = %d", msgs)
	}
	if wire < 1024 {
		t.Fatalf("wire bytes = %d", wire)
	}
	wqes, tx := p.na.Stats()
	if wqes < 1 || tx < 1024 {
		t.Fatalf("nic stats = %d, %d", wqes, tx)
	}
}

func TestLatencyScalesWithMessageSize(t *testing.T) {
	measure := func(size int) sim.Duration {
		p := newTestPair(t)
		_ = p.na.Memory().Write(bufA, make([]byte, size))
		var done sim.Time
		p.qa.SendCQ().SetDrainHandler(func(es []CQE) { done = es[len(es)-1].At })
		if _, err := p.qa.PostSend(WQE{
			Opcode: OpWrite, Flags: FlagSignaled, Local: bufA, Len: uint64(size), Remote: bufB, Aux1: p.mrb.RKey,
		}); err != nil {
			t.Fatal(err)
		}
		p.run(t)
		return sim.Duration(done)
	}
	small := measure(128)
	large := measure(8192)
	if small <= 0 || large <= small {
		t.Fatalf("latency not size-dependent: 128B=%v 8KB=%v", small, large)
	}
	if large > 100*sim.Microsecond {
		t.Fatalf("8KB write latency implausible: %v", large)
	}
}
