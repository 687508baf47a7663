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

// TestCommittedBaselinesMatchSchema fails when a committed baseline has gone
// stale relative to the schema: fields the schema dropped fail Load's strict
// decode, fields it gained show up as a key-set mismatch against a
// re-marshal. Refresh both with ./ci.sh -update-baseline.
func TestCommittedBaselinesMatchSchema(t *testing.T) {
	for _, name := range []string{"BENCH_baseline.json", "HYPO_baseline.json"} {
		path := filepath.Join("..", "..", name)
		rep, err := Load(path)
		if err != nil {
			t.Fatalf("%s no longer decodes against the schema — regenerate it: %v", name, err)
		}
		if len(rep.Experiments) == 0 {
			t.Fatalf("%s has no experiments", name)
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
			t.Fatalf("%s top-level fields %v, schema has %v — regenerate it", name, got, want)
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
		if got, want := jsonKeys(t, fileExps.Experiments[0]), jsonKeys(t, schemaExps.Experiments[0]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s experiment fields %v, schema has %v — regenerate it", name, got, want)
		}
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	want := &BenchReport{
		Seed: 7, Scale: "quick", Procs: 2, GoMaxProcs: 2, TotalWallMS: 1.5,
		Experiments: []ExpStats{{ID: "x", Report: "r\n", SimEvents: 3, WallMS: 1}},
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
