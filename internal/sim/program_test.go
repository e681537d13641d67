package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"m2m/internal/chaos"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
)

// TestSharedProgramIsolation binds three engines to one compiled program —
// one with an adversary and a roomy battery, one honest with a battery
// tight enough to brown nodes out and a TDMA frame installed mid-run, and
// one behind an epoch fence — and drives them through interleaved RunInto
// and RunLossy rounds. Every round of each must be bit-identical to an
// engine that compiled the plan for itself: the runtimes share nothing
// but the immutable program, so the unfenced engines never see the
// fence.
func TestSharedProgramIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	n := 40
	inst := buildInstance(t, rng, n, 4, 6, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	model := radio.DefaultModel()
	prog, err := Compile(p, model, Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	victim := inst.Specs[0].Func.Sources()[0]
	liar := chaos.New(3).WithByzantine(victim, chaos.ByzOffset, 100, 0, chaos.Forever).WithCollisions(0)
	lossy := chaos.New(9).WithUniformLoss(0.2).WithCollisions(0)
	for _, inj := range []*chaos.Injector{liar, lossy} {
		if err := inj.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	fence := map[graph.NodeID]bool{inst.Specs[1].Func.Sources()[0]: true}
	arms := []struct {
		name     string
		adv      Adversary
		capJ     float64
		faults   Faults
		tdmaFrom int // round at which the arm switches to TDMA; -1 never
		fence    map[graph.NodeID]bool
	}{
		{"adversary", liar, 1, liar, -1, nil},
		{"tight-battery", nil, 0.002, lossy, 6, nil},
		{"fenced", nil, 1, chaos.New(5).WithUniformLoss(0.1), -1, fence},
	}
	type pair struct {
		shared, own       *Engine
		sharedSt, ownSt   *RoundState
		sharedBat, ownBat *Battery
	}
	pairs := make([]pair, len(arms))
	for i, a := range arms {
		sb, err := NewBattery(n, a.capJ)
		if err != nil {
			t.Fatal(err)
		}
		ob, err := NewBattery(n, a.capJ)
		if err != nil {
			t.Fatal(err)
		}
		own, err := NewEngine(p, model, Options{MergeMessages: true, Battery: ob, Adversary: a.adv})
		if err != nil {
			t.Fatal(err)
		}
		shared := prog.Bind(sb, a.adv)
		shared.SetFence(a.fence)
		own.SetFence(a.fence)
		pairs[i] = pair{shared, own, shared.NewRoundState(), own.NewRoundState(), sb, ob}
	}

	collisions := make([]int, len(arms))
	epochDropped := make([]int, len(arms))
	for round := 0; round < 16; round++ {
		readings := randomReadings(rng, n)
		for i, a := range arms {
			pr := pairs[i]
			if round == a.tdmaFrom {
				if err := pr.shared.EnableTDMA(); err != nil {
					t.Fatal(err)
				}
				if err := pr.own.EnableTDMA(); err != nil {
					t.Fatal(err)
				}
			}
			if round%2 == 0 {
				got, err := pr.shared.RunInto(readings, pr.sharedSt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := pr.own.RunInto(readings, pr.ownSt)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameRound(got, want); err != nil {
					t.Fatalf("%s round %d RunInto: %v", a.name, round, err)
				}
				continue
			}
			got, err := pr.shared.RunLossy(round, readings, a.faults, 2)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pr.own.RunLossy(round, readings, a.faults, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameLossy(got, want); err != nil {
				t.Fatalf("%s round %d RunLossy: %v", a.name, round, err)
			}
			collisions[i] += got.Collisions
			epochDropped[i] += got.EpochDropped
		}
	}

	for i, a := range arms {
		pr := pairs[i]
		for v := 0; v < n; v++ {
			id := graph.NodeID(v)
			if math.Float64bits(pr.sharedBat.Residual(id)) != math.Float64bits(pr.ownBat.Residual(id)) {
				t.Fatalf("%s: node %d residual %v, own-program twin %v", a.name, id, pr.sharedBat.Residual(id), pr.ownBat.Residual(id))
			}
		}
		wantMode := TxUnscheduled
		if a.tdmaFrom >= 0 {
			wantMode = TxTDMA
		}
		if got := pr.shared.TransmitMode(); got != wantMode {
			t.Fatalf("%s: transmit mode %v, want %v (a neighbor's frame leaked)", a.name, got, wantMode)
		}
		if fenced := epochDropped[i] > 0; fenced != (a.fence != nil) {
			t.Fatalf("%s: %d epoch-dropped frames with fence %v", a.name, epochDropped[i], a.fence)
		}
	}
	if collisions[0] == 0 {
		t.Fatal("the unscheduled arm saw no collisions: the contention path went untested")
	}
	if len(pairs[1].sharedBat.DepletedNodes()) == 0 {
		t.Fatal("tight battery depleted no node: the brown-out path went untested")
	}

	// A warmed engine bound to the shared program keeps the compiled
	// kernel's zero-allocation contract.
	eng := prog.Bind(nil, nil)
	st := eng.NewRoundState()
	readings := randomReadings(rng, n)
	if _, err := eng.RunInto(readings, st); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.RunInto(readings, st); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("RunInto on a shared program allocated %v objects/round, want 0", allocs)
	}
}

// sameLossy compares two lossy rounds: values bit for bit, and every
// report, outcome, counter and per-node energy deeply.
func sameLossy(got, want *LossyResult) error {
	for d, wv := range want.Values {
		if math.Float64bits(got.Values[d]) != math.Float64bits(wv) {
			return fmt.Errorf("destination %d = %v, want %v", d, got.Values[d], wv)
		}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("results differ:\n got %+v\nwant %+v", got, want)
	}
	return nil
}
