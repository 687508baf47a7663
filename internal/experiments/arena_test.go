package experiments

import "testing"

// TestArenaNoLeaks runs every experiment and claim scenario and asserts
// every trial wound down cleanly: when its trial ended, no kernel it built
// still had a live fiber or a parked runner goroutine.
func TestArenaNoLeaks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	prevProcs := SetParallelism(1)
	defer SetParallelism(prevProcs)

	for _, name := range Names() {
		_, s, err := RunStats(name, 7, Quick)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.LiveFibers != 0 {
			t.Errorf("%s: trials ended with %d live fibers", name, s.LiveFibers)
		}
		if s.ParkedRunners != 0 {
			t.Errorf("%s: trials ended with %d parked runner goroutines", name, s.ParkedRunners)
		}
	}
}
