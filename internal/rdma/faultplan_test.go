package rdma

import (
	"errors"
	"math"
	"testing"

	"hyperloop/internal/nvm"
	"hyperloop/internal/sim"
)

// mustInstall installs a plan the test believes is valid.
func mustInstall(t *testing.T, fab *Fabric, p *FaultPlan) {
	t.Helper()
	if err := fab.InstallFaultPlan(p); err != nil {
		t.Fatalf("InstallFaultPlan: %v", err)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	us := sim.Microsecond
	valid := []*FaultPlan{
		nil,
		{},
		{Links: []LinkFault{{DropProb: 0.5, DupProb: 1, ExtraDelay: 2 * us}}},
		{Links: []LinkFault{{PartitionFrom: sim.Time(10 * us), PartitionUntil: sim.Time(20 * us)}}},
		{Links: []LinkFault{{PartitionFrom: sim.Time(10 * us), PartitionUntil: sim.Time(10 * us)}}}, // empty = none
		{NICs: []NICFault{{Host: "b", At: sim.Time(5 * us), Down: true}}},
		{NICs: []NICFault{
			{Host: "b", At: sim.Time(5 * us), Down: true},
			{Host: "b", At: sim.Time(9 * us), Down: false},
			{Host: "b", At: sim.Time(12 * us), Down: true},
			{Host: "c", At: sim.Time(5 * us), Down: true}, // same instant, other host: fine
		}},
	}
	for i, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("valid plan %d rejected: %v", i, err)
		}
	}
	invalid := map[string]*FaultPlan{
		"drop>1":             {Links: []LinkFault{{DropProb: 1.5}}},
		"drop<0":             {Links: []LinkFault{{DropProb: -0.1}}},
		"dup>1":              {Links: []LinkFault{{DupProb: 2}}},
		"negative delay":     {Links: []LinkFault{{ExtraDelay: -us}}},
		"inverted partition": {Links: []LinkFault{{PartitionFrom: sim.Time(20 * us), PartitionUntil: sim.Time(10 * us)}}},
		"negative partition": {Links: []LinkFault{{PartitionFrom: sim.Time(-us), PartitionUntil: sim.Time(10 * us)}}},
		"empty host":         {NICs: []NICFault{{At: sim.Time(us), Down: true}}},
		"negative instant":   {NICs: []NICFault{{Host: "b", At: sim.Time(-us), Down: true}}},
		"same instant": {NICs: []NICFault{
			{Host: "b", At: sim.Time(us), Down: true},
			{Host: "b", At: sim.Time(us), Down: false},
		}},
		"restart before crash": {NICs: []NICFault{{Host: "b", At: sim.Time(us), Down: false}}},
		"double crash": {NICs: []NICFault{
			{Host: "b", At: sim.Time(us), Down: true},
			{Host: "b", At: sim.Time(2 * us), Down: true},
		}},
	}
	for name, p := range invalid {
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ErrBadFaultPlan) {
			t.Errorf("%s: error %v does not wrap ErrBadFaultPlan", name, err)
		}
	}
	// Validate must not reorder the caller's plan.
	p := &FaultPlan{NICs: []NICFault{
		{Host: "b", At: sim.Time(9 * us), Down: true},
		{Host: "a", At: sim.Time(5 * us), Down: true},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NICs[0].Host != "b" || p.NICs[1].Host != "a" {
		t.Fatal("Validate reordered the plan")
	}
	// Install rejects what Validate rejects.
	fab := NewFabric(sim.NewKernel(1), DefaultConfig())
	if err := fab.InstallFaultPlan(invalid["double crash"]); !errors.Is(err, ErrBadFaultPlan) {
		t.Fatalf("InstallFaultPlan accepted an invalid plan (err=%v)", err)
	}
}

// clamp01 maps arbitrary fuzz floats into a probability when asked to
// build a valid field, and passes them through otherwise.
func fuzzProb(raw float64, wantValid bool) float64 {
	if !wantValid {
		return raw
	}
	if math.IsNaN(raw) || math.IsInf(raw, 0) {
		return 0
	}
	return math.Abs(math.Mod(raw, 1))
}

// FuzzFaultPlanValidate drives arbitrary plan shapes through Validate and
// checks the contract both ways: Validate never panics or hangs, plans
// built inside the documented envelope are accepted, each seeded
// malformation is rejected with ErrBadFaultPlan, and accepted plans
// install and run a bounded simulation without hanging.
func FuzzFaultPlanValidate(f *testing.F) {
	f.Add(0.3, 0.1, int64(2000), int64(1000), int64(5000), uint8(2), uint8(0))
	f.Add(1.5, -0.2, int64(-5), int64(9), int64(3), uint8(3), uint8(7))
	f.Add(0.0, 0.0, int64(0), int64(0), int64(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, drop, dup float64, delay, pFrom, pUntil int64, nicEvents, malform uint8) {
		// malform bit i seeds malformation i; zero asks for a valid plan.
		wantValid := malform == 0
		plan := &FaultPlan{}
		lf := LinkFault{From: "a", To: "b"}
		lf.DropProb = fuzzProb(drop, wantValid)
		lf.DupProb = fuzzProb(dup, wantValid)
		lf.ExtraDelay = sim.Duration(delay)
		if wantValid && lf.ExtraDelay < 0 {
			lf.ExtraDelay = -lf.ExtraDelay
		}
		from, until := pFrom, pUntil
		if wantValid {
			if from < 0 {
				from = -from
			}
			if until < from {
				until = from
			}
		}
		lf.PartitionFrom, lf.PartitionUntil = sim.Time(from), sim.Time(until)
		plan.Links = append(plan.Links, lf)
		n := int(nicEvents % 6)
		for i := 0; i < n; i++ {
			plan.NICs = append(plan.NICs, NICFault{
				Host: "b",
				At:   sim.Time(int64(i+1) * int64(sim.Microsecond)),
				Down: i%2 == 0,
			})
		}
		switch {
		case malform&1 != 0:
			plan.Links[0].DropProb = 1.0001
		case malform&2 != 0:
			plan.Links[0].PartitionFrom = sim.Time(10)
			plan.Links[0].PartitionUntil = sim.Time(9)
		case malform&4 != 0:
			plan.NICs = append(plan.NICs, NICFault{Host: "", At: 1, Down: true})
		case malform&8 != 0: // duplicate instant for one host
			plan.NICs = append(plan.NICs,
				NICFault{Host: "c", At: sim.Time(7), Down: true},
				NICFault{Host: "c", At: sim.Time(7), Down: false})
		case malform&16 != 0: // crash while already down
			plan.NICs = append(plan.NICs,
				NICFault{Host: "d", At: sim.Time(3), Down: true},
				NICFault{Host: "d", At: sim.Time(5), Down: true})
		case malform&32 != 0: // restart before any crash
			plan.NICs = append(plan.NICs, NICFault{Host: "e", At: sim.Time(3), Down: false})
		case malform&64 != 0:
			plan.NICs = append(plan.NICs, NICFault{Host: "f", At: sim.Time(-4), Down: true})
		case malform&128 != 0:
			plan.Links[0].DupProb = math.Inf(1)
		}
		err := plan.Validate()
		if wantValid && err != nil {
			t.Fatalf("well-formed plan rejected: %v\nplan: %+v", err, plan)
		}
		if !wantValid {
			if err == nil {
				t.Fatalf("malformed plan (mask %08b) accepted: %+v", malform, plan)
			}
			if !errors.Is(err, ErrBadFaultPlan) {
				t.Fatalf("rejection %v does not wrap ErrBadFaultPlan", err)
			}
			return
		}
		// Accepted plans must install and run without hanging: a bounded
		// RunUntil over live traffic terminates (an eternal event loop or
		// an unbounded partition would trip the fuzz engine's timeout).
		k := sim.NewKernel(1)
		fab := NewFabric(k, DefaultConfig())
		na, err := fab.AddNIC("a", nvm.NewDevice("a", memSize))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fab.AddNIC("b", nvm.NewDevice("b", memSize)); err != nil {
			t.Fatal(err)
		}
		if err := fab.InstallFaultPlan(plan); err != nil {
			t.Fatalf("validated plan failed to install: %v", err)
		}
		if _, err := na.RegisterMR(0, memSize, AccessLocalWrite|AccessRemoteWrite); err != nil {
			t.Fatal(err)
		}
		if err := k.RunUntil(sim.Time(2 * sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
	})
}
