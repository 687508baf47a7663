package protocol

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hyperloop/internal/nvm"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

func testNIC(t *testing.T, size int) (*sim.Kernel, *rdma.NIC) {
	t.Helper()
	k := sim.NewKernel(1)
	nic, err := rdma.NewFabric(k, rdma.DefaultConfig()).AddNIC("n", nvm.NewDevice("n", size))
	if err != nil {
		t.Fatal(err)
	}
	return k, nic
}

// TestHostLayoutAndDestroy carves a host the way a datapath does and
// checks the one-group-per-NIC rule: the mirror is at offset 0, a second
// group cannot claim the NIC while the first one's queues live, and
// Destroy frees the NIC for it.
func TestHostLayoutAndDestroy(t *testing.T) {
	k, nic := testNIC(t, 1<<16)
	h := NewHost(nic, testMirror)
	if off := h.Region("meta", 100); off != testMirror {
		t.Fatalf("first region after the mirror at %d, want %d", off, testMirror)
	}
	if off := h.Region("ack", 8); off != testMirror+128 {
		t.Fatalf("regions not 64-byte aligned: ack at %d", off)
	}
	mr := h.MirrorMR()
	gate := h.CQ()
	qp := h.QP("ring", 4, nil, gate)
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	if mr.Off != 0 || mr.Len != testMirror {
		t.Fatalf("mirror MR [%d,+%d), want [0,+%d)", mr.Off, mr.Len, testMirror)
	}
	if qp.RecvCQ() != gate || qp.SendCQ().CQN() <= gate.CQN() || qp.RingSlots() != 4 {
		t.Fatalf("QP wiring: send CQ %d, recv CQ %d (gate %d), %d slots",
			qp.SendCQ().CQN(), qp.RecvCQ().CQN(), gate.CQN(), qp.RingSlots())
	}

	// A CQ with no drain handler counts completions. The ring write is
	// volatile: the mirror is the NIC's only durable memory.
	qp.Connect(qp)
	if _, err := qp.PostSend(rdma.WQE{Opcode: rdma.OpNop, Flags: rdma.FlagSignaled}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if cq := qp.SendCQ(); cq.Total() != 1 {
		t.Fatalf("send CQ total %d, want 1", cq.Total())
	}
	if w, _, _ := nic.Memory().Stats(); w == 0 || nic.Memory().DirtyBytes() != 0 {
		t.Fatalf("%d stores left %d dirty bytes past the mirror, want 0", w, nic.Memory().DirtyBytes())
	}

	if err := NewHost(nic, testMirror).Err(); err == nil || !strings.Contains(err.Error(), "offset 0") {
		t.Fatalf("second group on a live NIC: err = %v, want the offset-0 error", err)
	}
	h.Destroy()
	h.Destroy() // idempotent
	if !nic.Idle() || !qp.Dead() {
		t.Fatal("Destroy left queues live")
	}
	if err := NewHost(nic, testMirror).Err(); err != nil {
		t.Fatalf("NIC not reusable after Destroy: %v", err)
	}
}

// TestHostErrorIsSticky: after the first failure every call is a no-op
// that creates nothing, and Err keeps reporting that first failure.
func TestHostErrorIsSticky(t *testing.T) {
	_, nic := testNIC(t, 1024)
	if err := NewHost(nic, 2048).Err(); err == nil {
		t.Fatal("mirror larger than the device accepted")
	}
	h := NewHost(nic, 512)
	h.Region("too-big", 1024)
	first := h.Err()
	if first == nil {
		t.Fatal("oversized region accepted")
	}
	if h.Region("meta", 8) != 0 || h.MirrorMR() != nil || h.CQ() != nil || h.QP("ring", 1, nil, nil) != nil {
		t.Fatal("a call after the error did something")
	}
	if h.Err() != first || !nic.Idle() {
		t.Fatalf("err = %v (want %v), idle = %v", h.Err(), first, nic.Idle())
	}
	h.Destroy()
}

// TestHostRegionOffsets: regions follow the mirror 64-byte aligned and
// never overlap, whatever their sizes.
func TestHostRegionOffsets(t *testing.T) {
	_, nic := testNIC(t, 1<<16)
	h := NewHost(nic, 1000)
	end := uint64(1000)
	for i, size := range []int{1, 63, 64, 65, 0, 1000, 7} {
		off := h.Region(fmt.Sprint("r", i), size)
		if off%64 != 0 || off < end {
			t.Fatalf("region %d (%d bytes) at %d: want 64-aligned at or after %d", i, size, off, end)
		}
		end = off + uint64(size)
	}
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestHostRegionExhaustion: a region past the end of the device fails,
// naming the NIC and the region, and the failure is sticky.
func TestHostRegionExhaustion(t *testing.T) {
	_, nic := testNIC(t, 1024)
	h := NewHost(nic, 512)
	if off := h.Region("log", 512); off != 512 || h.Err() != nil {
		t.Fatalf("region filling the device at %d: %v", off, h.Err())
	}
	h.Region("ack", 1)
	err := h.Err()
	if err == nil || !strings.Contains(err.Error(), `n: cannot carve region "ack"`) {
		t.Fatalf("err = %v, want the NIC and region named", err)
	}
	if h.Region("meta", 0) != 0 || h.Err() != err {
		t.Fatalf("a region after exhaustion: err = %v, want %v kept", h.Err(), err)
	}
}

// TestHostRegionRejectsNegativeSize: a negative size would move the cursor
// backwards, so the next region would overlap the previous one.
func TestHostRegionRejectsNegativeSize(t *testing.T) {
	_, nic := testNIC(t, 4096)
	h := NewHost(nic, 1024)
	h.Region("neg", -512)
	if h.Err() == nil || h.next != 1024 {
		t.Fatalf("negative size: err = %v, cursor %d, want an error and the cursor at 1024", h.Err(), h.next)
	}
}

// TestHostRegionRejectsHugeSize: off+size wraps past math.MaxInt, so a
// check of the sum would pass; the size must be rejected on its own.
func TestHostRegionRejectsHugeSize(t *testing.T) {
	_, nic := testNIC(t, 4096)
	h := NewHost(nic, 100)
	h.Region("huge", math.MaxInt-3)
	if h.Err() == nil || h.next != 100 {
		t.Fatalf("size MaxInt-3: err = %v, cursor %d, want an error and the cursor at 100", h.Err(), h.next)
	}
}

func TestWindowRoundsUpToPowerOfTwo(t *testing.T) {
	for depth, want := range map[int]int{-3: 32, 0: 32, 1: 1, 19: 32, 32: 32, 33: 64} {
		if got := Window(depth); got != want {
			t.Errorf("Window(%d) = %d, want %d", depth, got, want)
		}
	}
}
