package docstore

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// sameAsMarshal checks appendFlat against json.Marshal on one flat
// document: the same bytes, or the same error.
func sameAsMarshal(t *testing.T, doc Doc) {
	t.Helper()
	if !flat(doc) {
		t.Fatalf("%q is not flat", doc)
	}
	want, werr := json.Marshal(doc)
	got, gerr := new(Store).appendFlat(nil, doc)
	switch {
	case werr != nil || gerr != nil:
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("%q: appendFlat error %v, json.Marshal error %v", doc, gerr, werr)
		}
	case !bytes.Equal(got, want):
		t.Fatalf("%q: appendFlat wrote\n%s\njson.Marshal writes\n%s", doc, got, want)
	}
}

// FuzzFlatEncode: appendFlat writes json.Marshal's bytes for every flat
// document, or fails where it fails. Fuzzed strings are made valid UTF-8,
// as flat requires.
func FuzzFlatEncode(f *testing.F) {
	f.Add("k", "<a href='x'>&</a>", 1.0, 0.5)
	f.Add("\x00\x01\b\t\n\f\r\x1f\x7f", "\"quoted\" \\ back\bslash\f", -1.0, 42.0)
	f.Add("line\u2028sep", "para\u2029sep \ufffd \U0001F600", 1e-6, math.Nextafter(1e-6, 0))
	f.Add("big", "e", 1e21, math.Nextafter(1e21, 0))
	f.Add("neg", "", -1e21, -1e-7)
	f.Add("\xff\xfe", "\xe2\x80", math.Copysign(0, -1), 5e-324)
	f.Add("max", "x", math.MaxFloat64, -math.MaxFloat64)
	f.Add("nan", "x", math.NaN(), 1.0)
	f.Add("inf", "x", math.Inf(1), math.Inf(-1))
	f.Fuzz(func(t *testing.T, key, str string, x, y float64) {
		key = strings.ToValidUTF8(key, "\ufffd")
		str = strings.ToValidUTF8(str, "\ufffd")
		sameAsMarshal(t, Doc{"_id": str, key: str, "x": x, "y": y, "t": true, "f": false, "null": nil})
	})
}

// TestFlatEncodeMatchesMarshal drives appendFlat over random flat
// documents built from the runes and floats encoding/json treats
// specially.
func TestFlatEncodeMatchesMarshal(t *testing.T) {
	runes := []rune{'a', 'Z', '0', ' ', '"', '\\', '/', '<', '>', '&', '\b', '\f', '\n', '\r', '\t',
		0, 0x1f, 0x7f, 0x80, 0xe9, 0x2027, 0x2028, 0x2029, 0x202a, 0xfffd, 0x1f600, 0x10ffff}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, math.Nextafter(1e-6, 0), 1e-7,
		1e20, 1e21, math.Nextafter(1e21, 0), 123456789e-15, 5e-324, math.SmallestNonzeroFloat64 * 3,
		math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(1))
	str := func() string {
		var b strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			b.WriteRune(runes[rng.Intn(len(runes))])
		}
		return b.String()
	}
	for range 5000 {
		doc := Doc{"_id": str()}
		for n := rng.Intn(6); n > 0; n-- {
			switch rng.Intn(5) {
			case 0:
				doc[str()] = str()
			case 1:
				doc[str()] = floats[rng.Intn(len(floats))]
			case 2:
				doc[str()] = math.Float64frombits(rng.Uint64())
			case 3:
				doc[str()] = rng.Intn(2) == 0
			default:
				doc[str()] = nil
			}
		}
		sameAsMarshal(t, doc)
	}
}
