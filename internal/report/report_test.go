package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// jsonKeys returns the sorted key set of a JSON object.
func jsonKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("not a JSON object: %v", err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestCommittedBaselinesMatchSchema fails when the committed baseline has
// gone stale relative to the schema: fields the schema dropped fail Load's
// strict decode, fields it gained show up as a key-set mismatch against a
// re-marshal. Refresh it with ./ci.sh -update-baseline.
func TestCommittedBaselinesMatchSchema(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_baseline.json")
	rep, err := Load(path)
	if err != nil {
		t.Fatalf("baseline no longer decodes against the schema — regenerate it: %v", err)
	}
	if len(rep.Experiments) == 0 {
		t.Fatal("baseline has no experiments")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	remarshal, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := jsonKeys(t, data), jsonKeys(t, remarshal); !reflect.DeepEqual(got, want) {
		t.Fatalf("baseline top-level fields %v, schema has %v — regenerate it", got, want)
	}
	var fileExps, schemaExps struct {
		Experiments []json.RawMessage `json:"experiments"`
	}
	if err := json.Unmarshal(data, &fileExps); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(remarshal, &schemaExps); err != nil {
		t.Fatal(err)
	}
	for i := range fileExps.Experiments {
		if got, want := jsonKeys(t, fileExps.Experiments[i]), jsonKeys(t, schemaExps.Experiments[i]); !reflect.DeepEqual(got, want) {
			t.Fatalf("baseline experiment %d fields %v, schema has %v — regenerate it", i, got, want)
		}
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	want := &BenchReport{
		Seed: 7, Scale: "quick", Procs: 2,
		Experiments: []ExpStats{{ID: "x", Report: "r\n", SimEvents: 3, CQEs: 1}},
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := want.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}
