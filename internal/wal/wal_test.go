package wal

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := Record{
		Seq: 42,
		Entries: []Entry{
			{Off: 100, Data: []byte("hello")},
			{Off: 2000, Data: []byte("world!")},
			{Off: 0, Data: nil},
		},
	}
	buf := make([]byte, r.EncodedSize())
	n, err := r.Encode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != r.EncodedSize() {
		t.Fatalf("encoded %d bytes, size says %d", n, r.EncodedSize())
	}
	d, err := Decode(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Seq != 42 || len(d.Entries) != 3 || d.Size != n {
		t.Fatalf("decoded %+v", d)
	}
	if d.Entries[0].Off != 100 || string(d.Data(buf, d.Entries[0])) != "hello" {
		t.Fatalf("entry 0 wrong: %+v", d.Entries[0])
	}
	if d.Entries[1].Off != 2000 || string(d.Data(buf, d.Entries[1])) != "world!" {
		t.Fatalf("entry 1 wrong")
	}
	if d.Entries[2].Len != 0 {
		t.Fatalf("empty entry len = %d", d.Entries[2].Len)
	}
}

func TestEncodeBufferTooSmall(t *testing.T) {
	r := Record{Seq: 1, Entries: []Entry{{Off: 0, Data: make([]byte, 100)}}}
	if _, err := r.Encode(make([]byte, 10)); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	r := Record{Seq: 7, Entries: []Entry{{Off: 5, Data: []byte("payload")}}}
	good := make([]byte, r.EncodedSize())
	if _, err := r.Encode(good); err != nil {
		t.Fatal(err)
	}

	cases := map[string]func([]byte){
		"bad magic":      func(b []byte) { b[0] ^= 0xFF },
		"flipped data":   func(b []byte) { b[len(b)-6] ^= 0x01 },
		"flipped crc":    func(b []byte) { b[len(b)-1] ^= 0x01 },
		"flipped seq":    func(b []byte) { b[5] ^= 0x01 },
		"truncated ding": func(b []byte) { b[12] = 0xFF; b[13] = 0xFF }, // entry count explodes
	}
	for name, corrupt := range cases {
		bad := append([]byte(nil), good...)
		corrupt(bad)
		if _, err := Decode(bad, nil); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
	// Truncated buffer.
	if _, err := Decode(good[:len(good)-2], nil); err == nil {
		t.Error("truncated record accepted")
	}
	if _, err := Decode(good[:3], nil); !errors.Is(err, ErrTooSmall) {
		t.Error("tiny buffer accepted")
	}
}

// ringFetch is Walk's fetch over a ring held in one slice.
func ringFetch(ring []byte) func(pos, n int) ([]byte, error) {
	return func(pos, n int) ([]byte, error) { return ring[pos : pos+n], nil }
}

func TestPadMarkers(t *testing.T) {
	buf := bytes.Repeat([]byte{0xEE}, 64)
	if n := EncodePad(buf); n != padHeaderSize {
		t.Fatalf("EncodePad = %d, want the %d-byte marker", n, padHeaderSize)
	}
	// A ring of one pad and nothing else: the walk skips it whole.
	end, err := Walk(len(buf), 0, len(buf), ringFetch(buf), nil, func(int, DecodedRecord, []byte) bool {
		t.Fatal("a pad walked as a record")
		return false
	})
	if err != nil || end != len(buf) {
		t.Fatalf("walk over a pad = %d, %v", end, err)
	}
	if !bytes.Equal(buf[padHeaderSize:], make([]byte, len(buf)-padHeaderSize)) {
		t.Fatal("pad body not zeroed")
	}
}

func TestScanWalksRecordsAndPads(t *testing.T) {
	img := make([]byte, 4096)
	p := 0
	var seqs []uint64
	for i := 0; i < 5; i++ {
		r := Record{Seq: uint64(i + 1), Entries: []Entry{{Off: i * 10, Data: bytes.Repeat([]byte{byte(i)}, i+1)}}}
		n, err := r.Encode(img[p:])
		if err != nil {
			t.Fatal(err)
		}
		p += n
		seqs = append(seqs, uint64(i+1))
		if i == 2 { // insert a pad mid-stream
			EncodePad(img[p : p+32])
			p += 32
		}
	}
	recs, positions, err := Scan(img, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || len(positions) != 5 {
		t.Fatalf("scanned %d records", len(recs))
	}
	for i, r := range recs {
		if r.Seq != seqs[i] {
			t.Fatalf("record %d seq = %d", i, r.Seq)
		}
	}
}

func TestScanStopsAtTornTail(t *testing.T) {
	img := make([]byte, 1024)
	r1 := Record{Seq: 1, Entries: []Entry{{Off: 0, Data: []byte("ok")}}}
	n1, _ := r1.Encode(img)
	r2 := Record{Seq: 2, Entries: []Entry{{Off: 8, Data: []byte("torn")}}}
	n2, _ := r2.Encode(img[n1:])
	img[n1+n2-2] ^= 0xFF // corrupt record 2's tail
	recs, _, err := Scan(img, 0, n1+n2)
	if err == nil {
		t.Fatal("torn tail not detected")
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("valid prefix = %d records", len(recs))
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seq uint64, offs []uint16, blobs [][]byte) bool {
		n := len(offs)
		if len(blobs) < n {
			n = len(blobs)
		}
		if n > 16 {
			n = 16
		}
		r := Record{Seq: seq}
		for i := 0; i < n; i++ {
			data := blobs[i]
			if len(data) > 512 {
				data = data[:512]
			}
			r.Entries = append(r.Entries, Entry{Off: int(offs[i]), Data: data})
		}
		buf := make([]byte, r.EncodedSize()+16)
		sz, err := r.Encode(buf)
		if err != nil {
			return false
		}
		d, err := Decode(buf, nil)
		if err != nil || d.Seq != seq || len(d.Entries) != len(r.Entries) || d.Size != sz {
			return false
		}
		for i, e := range d.Entries {
			if e.Off != r.Entries[i].Off || !bytes.Equal(d.Data(buf, e), r.Entries[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionDetectionProperty(t *testing.T) {
	// Flipping any single bit of an encoded record must make Decode fail
	// or change nothing material (never silently yield different content).
	r := Record{Seq: 99, Entries: []Entry{{Off: 1234, Data: []byte("property-based")}}}
	buf := make([]byte, r.EncodedSize())
	if _, err := r.Encode(buf); err != nil {
		t.Fatal(err)
	}
	f := func(bitIdx uint16) bool {
		pos := int(bitIdx) % (len(buf) * 8)
		bad := append([]byte(nil), buf...)
		bad[pos/8] ^= 1 << (pos % 8)
		_, err := Decode(bad, nil)
		return err != nil // every single-bit flip must be caught
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestExtentAgreesWithDecode is extent's contract: Decode gives the same
// verdict on the image cut at extent as on the whole image — for intact
// records followed by other log bytes, for every single-bit flip of one,
// and for images too short to hold a record — and an intact record is sized
// from its headers alone.
func TestExtentAgreesWithDecode(t *testing.T) {
	r := Record{Seq: 9, Entries: []Entry{
		{Off: 8, Data: []byte("first")}, {Off: 64, Data: nil}, {Off: 128, Data: bytes.Repeat([]byte{7}, 300)},
	}}
	size := r.EncodedSize()
	good := bytes.Repeat([]byte{0xEE}, size+200) // a record, then whatever the ring holds next
	if _, err := r.Encode(good); err != nil {
		t.Fatal(err)
	}
	agree := func(img []byte) (fetched int, ok bool) {
		n, err := extent(len(img), func(pos, n int) ([]byte, error) {
			fetched += n
			return img[pos : pos+n], nil
		})
		if err != nil || n > len(img) {
			return fetched, false
		}
		whole, werr := Decode(img, nil)
		cut, cerr := Decode(img[:n], nil)
		if (werr == nil) != (cerr == nil) || errors.Is(werr, ErrTooSmall) != errors.Is(cerr, ErrTooSmall) {
			return fetched, false
		}
		return fetched, werr != nil || (cut.Size == whole.Size && cut.Seq == whole.Seq && n == whole.Size)
	}
	fetched, ok := agree(good)
	if want := recHeaderSize + len(r.Entries)*entryHeader; !ok || fetched != want {
		t.Fatalf("intact record: agree=%v, %d header bytes fetched, want %d", ok, fetched, want)
	}
	for bit := 0; bit < size*8; bit++ {
		bad := append([]byte(nil), good...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, ok := agree(bad); !ok {
			t.Fatalf("bit %d flipped: Decode disagrees between the cut and the whole image", bit)
		}
	}
	for _, n := range []int{0, 8, recHeaderSize + recTrailerSize - 1, recHeaderSize + recTrailerSize, size - 1} {
		if _, ok := agree(good[:n]); !ok {
			t.Fatalf("image of %d bytes: Decode disagrees between the cut and the whole image", n)
		}
	}
	boom := errors.New("boom")
	for failAt := 0; failAt < 2; failAt++ {
		calls := 0
		_, err := extent(len(good), func(pos, n int) ([]byte, error) {
			if calls++; calls > failAt {
				return nil, boom
			}
			return good[pos : pos+n], nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("fetch %d failing: err = %v", failAt, err)
		}
	}
}
