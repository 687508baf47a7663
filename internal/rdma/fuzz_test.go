package rdma

import (
	"testing"

	"hyperloop/internal/sim"
)

// fuzzSlot builds a 64-byte ring slot from fuzz input, zero-padded like
// freshly allocated ring memory.
func fuzzSlot(raw []byte) [WQESize]byte {
	var slot [WQESize]byte
	copy(slot[:], raw)
	return slot
}

// FuzzWQEDecode feeds arbitrary 64-byte slots through the decoder and then
// through a live send ring — the exact surface a remote peer can patch with
// RDMA writes (§4.1), so malformed descriptors must degrade into error
// completions or stalls, never panics, hangs, or giant allocations.
func FuzzWQEDecode(f *testing.F) {
	// Seeds: a valid NOP, an un-owned slot, a zero opcode, an invalid
	// opcode, a WRITE with a bogus rkey, and a WRITE with an absurd length.
	seed := func(w WQE) []byte {
		var buf [WQESize]byte
		_ = w.Encode(buf[:])
		return buf[:]
	}
	f.Add(seed(WQE{Opcode: OpNop, Flags: FlagOwned | FlagSignaled, WRID: 1}))
	f.Add(seed(WQE{Opcode: OpWrite, Flags: FlagSignaled, Len: 8, Remote: bufB}))
	f.Add(seed(WQE{Opcode: Opcode(0), Flags: FlagOwned}))
	f.Add(seed(WQE{Opcode: Opcode(250), Flags: FlagOwned | FlagSignaled}))
	f.Add(seed(WQE{Opcode: OpWrite, Flags: FlagOwned | FlagSignaled, Local: bufA, Len: 16, Remote: bufB, Aux1: 0xdead}))
	f.Add(seed(WQE{Opcode: OpWrite, Flags: FlagOwned | FlagSignaled, Local: bufA, Len: 1 << 40, Remote: bufB}))

	f.Fuzz(func(t *testing.T, raw []byte) {
		slot := fuzzSlot(raw)

		// Round-trip: any 64 bytes decode, and decode∘encode∘decode is the
		// identity on the decoded struct (encode canonicalizes padding).
		w, err := DecodeWQE(slot[:])
		if err != nil {
			t.Fatalf("decode of full slot failed: %v", err)
		}
		var re [WQESize]byte
		if err := w.Encode(re[:]); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		w2, err := DecodeWQE(re[:])
		if err != nil || w2 != w {
			t.Fatalf("decode(encode(w)) = %+v, %v; want %+v", w2, err, w)
		}

		// Inject the raw slot into a live ring, as a malicious peer would,
		// and let the send engine chew on it for a bounded horizon.
		p := newTestPair(t)
		if err := p.na.Memory().Write(int(SlotAddr(ringOff, ringSlots, 0)), slot[:]); err != nil {
			t.Fatal(err)
		}
		sent := record(p.qa.SendCQ())
		p.qa.tail, p.qa.queued = 1, 1
		p.qa.Doorbell()
		if err := p.k.RunUntil(sim.Time(100 * sim.Millisecond)); err != nil {
			t.Fatalf("run: %v", err)
		}

		owned := w.Flags&FlagOwned != 0
		signaled := w.Flags&FlagSignaled != 0

		// The send ring itself is plain registered memory at [0, ringBytes)
		// — that writability is the paper's §4.1 surface. An op that writes
		// local memory overlapping the ring (MEMCPY's destination, a CAS
		// reply payload) can therefore mint new owned WQEs in later slots,
		// which the engine then legitimately executes: more than one
		// completion is correct behaviour there, so the single-slot oracle
		// only applies to non-self-modifying ops.
		const ringBytes = ringSlots * WQESize
		selfRing := func(off, n uint64) bool { return int64(off) < int64(ringBytes) && n > 0 }
		selfModifying := false
		if owned {
			switch w.Opcode {
			case OpMemcpy:
				selfModifying = selfRing(w.Remote, w.Len)
			case OpCAS:
				selfModifying = selfRing(w.Local, 8)
			}
		}

		wqes, _ := p.na.Stats()
		cqes := *sent
		if len(cqes) > 1 && !selfModifying {
			t.Fatalf("single slot produced %d completions", len(cqes))
		}
		if selfModifying {
			// Only the global invariants hold: no panic, no hang.
			return
		}

		switch {
		case !owned || w.Opcode == 0:
			// Not handed to the NIC: the engine must stall, not execute.
			if wqes != 0 || len(cqes) != 0 {
				t.Fatalf("un-owned/zero-opcode slot executed: wqes=%d cqes=%d", wqes, len(cqes))
			}

		case w.Opcode == OpRecv || w.Opcode == OpWriteImm+1 || w.Opcode > OpFlush:
			// Invalid opcode on a send ring (OpWriteImm+1 is the retired
			// READ's value): error completion, always.
			if wqes != 1 || len(cqes) != 1 || cqes[0].Status != StatusLocalError {
				t.Fatalf("invalid opcode %d: wqes=%d cqes=%v", w.Opcode, wqes, cqes)
			}

		case w.Opcode == OpNop:
			if signaled && (len(cqes) != 1 || cqes[0].Status != StatusSuccess) {
				t.Fatalf("signaled NOP: cqes=%v", cqes)
			}

		case w.Opcode == OpWrite:
			// Mirror the engine's checks to predict the completion status.
			want := StatusSuccess
			mr := p.mrb
			switch {
			case w.Len > memSize:
				want = StatusLocalError // length bounds-check precedes buffering
			case w.Local > memSize-w.Len:
				want = StatusLocalError // local read out of bounds (Len ≤ memSize here; Local+Len may wrap)
			case w.Aux1 != mr.RKey || !mr.Contains(w.Remote, w.Len):
				want = StatusRemoteAccessError // rkey/remote-range rejected
			}
			if want == StatusSuccess && !signaled {
				if len(cqes) != 0 {
					t.Fatalf("unsignaled successful WRITE completed: %v", cqes)
				}
			} else if len(cqes) != 1 || cqes[0].Status != want {
				t.Fatalf("WRITE %+v: cqes=%v, want status %v", w, cqes, want)
			}
		}
		// Remaining opcodes (SEND may retry RNR forever, WAIT may park,
		// CAS/FLUSH/MEMCPY race the horizon) assert only the global
		// invariants above: no panic, bounded completions, bounded memory.
	})
}
