package nvm

import (
	"math/rand"
	"testing"
)

// The write-path benchmarks use the shapes of the repository benchmark's
// nvm probes (bench/probes.go): 1 KiB writes appended back to back (the kv
// log) and 1 KiB writes to 4 096 slots 2 KiB apart in random order (the
// document store), then a flush of each slot.
const (
	benchSlots  = 4096
	benchValue  = 1024
	benchStride = 2 * benchValue
)

// BenchmarkDeviceWriteSeq appends 1 KiB writes to a device that starts
// each pass empty, so every write extends the last range.
func BenchmarkDeviceWriteSeq(b *testing.B) {
	d := NewDevice("seq", benchSlots*benchValue)
	data := make([]byte, benchValue)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % benchSlots
		if slot == 0 && i > 0 {
			b.StopTimer()
			d.Reset()
			b.StartTimer()
		}
		if err := d.Write(slot*benchValue, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceWriteScatter writes the slots in random order to a device
// that starts each pass empty, so most writes insert a new range between
// two resident ones.
func BenchmarkDeviceWriteScatter(b *testing.B) {
	d := NewDevice("scatter", benchSlots*benchStride)
	data := make([]byte, benchValue)
	order := rand.New(rand.NewSource(1)).Perm(benchSlots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchSlots == 0 && i > 0 {
			b.StopTimer()
			d.Reset()
			b.StartTimer()
		}
		if err := d.Write(order[i%benchSlots]*benchStride, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceFlushScatter flushes the slots of a fully dirty device in
// random order; each flush removes one range from among the resident ones.
func BenchmarkDeviceFlushScatter(b *testing.B) {
	d, data := scatteredDevice(b)
	order := rand.New(rand.NewSource(1)).Perm(benchSlots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchSlots == 0 && i > 0 {
			b.StopTimer()
			for s := 0; s < benchSlots; s++ {
				if err := d.Write(s*benchStride, data); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		if n, err := d.Flush(order[i%benchSlots]*benchStride, benchValue); err != nil || n != benchValue {
			b.Fatalf("flush: n=%d err=%v", n, err)
		}
	}
}

// BenchmarkDeviceRewriteFlush writes 1 KiB over flushed non-zero bytes and
// flushes it, slot after slot: the kv log once it wraps. Each write records
// the bytes it overwrites as their pre-images, which the flush then drops.
func BenchmarkDeviceRewriteFlush(b *testing.B) {
	d := NewDevice("rewrite", benchSlots*benchValue)
	data := make([]byte, benchValue)
	for i := range data {
		data[i] = byte(i) | 1
	}
	for s := 0; s < benchSlots; s++ {
		if err := d.Write(s*benchValue, data); err != nil {
			b.Fatal(err)
		}
	}
	d.FlushAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i % benchSlots * benchValue
		if err := d.Write(off, data); err != nil {
			b.Fatal(err)
		}
		if n, err := d.Flush(off, benchValue); err != nil || n != benchValue {
			b.Fatalf("flush: n=%d err=%v", n, err)
		}
	}
}
