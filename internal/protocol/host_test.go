package protocol

import (
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

	// Counter-only CQs count completions and keep none.
	qp.Connect(qp)
	if _, err := qp.PostSend(rdma.WQE{Opcode: rdma.OpNop, Flags: rdma.FlagSignaled}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if cq := qp.SendCQ(); cq.Total() != 1 || cq.Depth() != 0 {
		t.Fatalf("send CQ total %d depth %d, want 1 and 0", cq.Total(), cq.Depth())
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

func TestWindowRoundsUpToPowerOfTwo(t *testing.T) {
	for depth, want := range map[int]int{-3: 32, 0: 32, 1: 1, 19: 32, 32: 32, 33: 64} {
		if got := Window(depth); got != want {
			t.Errorf("Window(%d) = %d, want %d", depth, got, want)
		}
	}
}
