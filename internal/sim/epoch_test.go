package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"m2m/internal/chaos"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
)

// A lagging node fences every edge it touches: frames are heard (and
// priced) but never merged, so the destination starves exactly as if the
// links were down — except the receiver also pays for what it discarded.
func TestEpochFenceDropsStaleFrames(t *testing.T) {
	// 0—1—2—3, dest 3 sums {0, 2}; node 1 lags, severing 0→1 and 1→2.
	inst := lineInstance(t, 4, []graph.NodeID{0, 2})
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := map[graph.NodeID]float64{0: 2, 2: 5}
	const maxRetries = 2
	eng.SetFence(map[graph.NodeID]bool{1: true})
	fenced, err := eng.RunLossy(0, readings, nil, maxRetries)
	if err != nil {
		t.Fatal(err)
	}
	if fenced.EpochDropped == 0 {
		t.Fatal("no frame was epoch-dropped across a lagging node")
	}
	for _, o := range fenced.Outcomes {
		touches := o.Edge.From == 1 || o.Edge.To == 1
		if touches && o.Delivered {
			t.Fatalf("fenced edge %v delivered", o.Edge)
		}
		if touches && o.Attempts != maxRetries+1 {
			t.Fatalf("fenced edge %v burned %d attempts, want the full budget %d", o.Edge, o.Attempts, maxRetries+1)
		}
		if !touches && !o.Delivered {
			t.Fatalf("open edge %v failed on a perfect channel", o.Edge)
		}
	}
	rep := fenced.Reports[3]
	if rep == nil || rep.Fresh {
		t.Fatalf("destination fresh despite a fenced relay: %+v", rep)
	}
	for d, rep := range fenced.Reports {
		if err := rep.Validate(); err != nil {
			t.Fatalf("dest %d: %v", d, err)
		}
	}

	// The same topology with those links simply down burns the same
	// attempts but hears nothing: the fenced run costs strictly more,
	// because its receivers paid RX for every frame they discarded.
	eng.SetFence(nil)
	down, err := eng.RunLossy(0, readings, edgeFaults{down: map[routing.Edge]bool{
		{From: 0, To: 1}: true, {From: 1, To: 2}: true,
	}}, maxRetries)
	if err != nil {
		t.Fatal(err)
	}
	if fenced.EnergyJ <= down.EnergyJ {
		t.Fatalf("fenced energy %v not above link-down energy %v", fenced.EnergyJ, down.EnergyJ)
	}
	if fenced.Dropped != down.Dropped {
		t.Fatalf("fenced dropped %d messages, link-down %d", fenced.Dropped, down.Dropped)
	}
}

// A fence naming no node fences nothing: the round is byte-identical to
// the unfenced run.
func TestEpochFenceCurrentEpochNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inst := buildInstance(t, rng, 30, 4, 4, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := randomReadings(rng, inst.Net.Len())
	plain, err := eng.RunLossy(0, readings, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFence(map[graph.NodeID]bool{})
	current, err := eng.RunLossy(0, readings, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if current.EpochDropped != 0 {
		t.Fatalf("EpochDropped = %d with every node current", current.EpochDropped)
	}
	if current.EnergyJ != plain.EnergyJ || current.Dropped != 0 {
		t.Fatalf("all-current fence changed the round: energy %v vs %v, dropped %d",
			current.EnergyJ, plain.EnergyJ, current.Dropped)
	}
	for d, v := range plain.Values {
		if current.Values[d] != v {
			t.Fatalf("value at %d changed under a no-op fence", d)
		}
	}
}

// The asynchronous executor honors the same fence: heard copies are
// discarded and counted, no ack forms, and the message resolves lost
// instead of hanging the round.
func TestEpochFenceAsync(t *testing.T) {
	inst := lineInstance(t, 4, []graph.NodeID{0, 2})
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := map[graph.NodeID]float64{0: 2, 2: 5}
	eng.SetFence(map[graph.NodeID]bool{1: true})
	async, err := eng.RunAsync(0, readings, nil, AsyncConfig{MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if async.EpochDropped == 0 {
		t.Fatal("async executor merged (or never heard) fenced frames")
	}
	sync, err := eng.RunLossy(0, readings, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range async.Outcomes {
		if (o.Edge.From == 1 || o.Edge.To == 1) && o.Delivered {
			t.Fatalf("async delivered across fenced edge %v", o.Edge)
		}
	}
	for d, rep := range sync.Reports {
		arep := async.Reports[d]
		if arep == nil || arep.Fresh != rep.Fresh || arep.Starved != rep.Starved {
			t.Fatalf("dest %d: async report %+v, sync %+v", d, arep, rep)
		}
	}
	validateAll(t, async)
}

// The chaos determinism contract across executors: one schedule seed fixes
// every message's fate, so re-runs are identical and the synchronous and
// zero-latency asynchronous executors agree on every LossyResult field —
// counters, outcomes with their payload sizes, per-node energy (key set
// included), values and reports — under loss and crashes, contention, an
// epoch fence and a Byzantine source. Round EnergyJ agrees to rounding:
// the async executor books a message's attempts only once its round ends.
// Battery ledgers are excluded: the executors debit in different orders
// (planned order versus event time), so brown-out points, and with them
// outcomes, can differ.
func TestChaosCrossExecutorDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	inst := buildInstance(t, rng, 40, 6, 6, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := randomReadings(rng, inst.Net.Len())
	const maxRetries = 3
	clean, err := eng.RunLossy(0, readings, nil, maxRetries)
	if err != nil {
		t.Fatal(err)
	}
	lagging := map[graph.NodeID]bool{
		clean.Outcomes[0].Edge.From:                     true,
		clean.Outcomes[len(clean.Outcomes)/2].Edge.From: true,
	}
	liar := inst.Specs[0].Func.Sources()[0]
	for _, tc := range []struct {
		name   string
		fence  map[graph.NodeID]bool
		faults func() Faults
	}{
		{"loss+crash", nil, func() Faults { return chaos.New(77).WithUniformLoss(0.25).Crash(11, 2) }},
		{"collision", nil, func() Faults { return chaos.New(77).WithUniformLoss(0.15).WithCollisions(0.3).Crash(11, 2) }},
		{"fence", lagging, func() Faults { return chaos.New(77).WithUniformLoss(0.2) }},
		{"byzantine", nil, func() Faults {
			return chaos.New(77).WithUniformLoss(0.2).WithByzantine(liar, chaos.ByzOffset, 100, 0, chaos.Forever)
		}},
	} {
		eng.SetFence(tc.fence)
		for r := 0; r < 4; r++ {
			a, err := eng.RunLossy(r, readings, tc.faults(), maxRetries)
			if err != nil {
				t.Fatal(err)
			}
			b, err := eng.RunLossy(r, readings, tc.faults(), maxRetries)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameLossy(b, a); err != nil {
				t.Fatalf("%s round %d: same seed, different sync rounds: %v", tc.name, r, err)
			}
			async, err := eng.RunAsync(r, readings, tc.faults(), AsyncConfig{MaxRetries: maxRetries})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameAcrossExecutors(&async.LossyResult, a); err != nil {
				t.Fatalf("%s round %d: async vs sync: %v", tc.name, r, err)
			}
		}
	}

	eng.SetFence(nil)

	// The concurrent batch runner shares the compiled program: fault-free
	// values must be bit-identical to the lossy executor's under a nil
	// schedule, whatever the worker interleaving.
	batch := make([]map[graph.NodeID]float64, 8)
	for i := range batch {
		batch[i] = randomReadings(rng, inst.Net.Len())
	}
	conc, err := eng.RunConcurrent(context.Background(), batch, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, readings := range batch {
		ref, err := eng.RunLossy(0, readings, nil, maxRetries)
		if err != nil {
			t.Fatal(err)
		}
		for d, v := range ref.Values {
			if conc[i].Values[d] != v {
				t.Fatalf("batch %d dest %d: concurrent value %v, want %v", i, d, conc[i].Values[d], v)
			}
		}
	}
}

// sameAcrossExecutors compares an asynchronous round with the synchronous
// one: everything exactly, except EnergyJ (to 1e-12 relative) and the
// report fields only the asynchronous executor fills.
func sameAcrossExecutors(got, want *LossyResult) error {
	if got.Messages != want.Messages || got.Transmissions != want.Transmissions || got.Retries != want.Retries ||
		got.Dropped != want.Dropped || got.EpochDropped != want.EpochDropped || got.Collisions != want.Collisions {
		return fmt.Errorf("counters %+v, want %+v",
			[]int{got.Messages, got.Transmissions, got.Retries, got.Dropped, got.EpochDropped, got.Collisions},
			[]int{want.Messages, want.Transmissions, want.Retries, want.Dropped, want.EpochDropped, want.Collisions})
	}
	if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
		return fmt.Errorf("outcomes %+v, want %+v", got.Outcomes, want.Outcomes)
	}
	if !reflect.DeepEqual(got.PerNodeJ, want.PerNodeJ) {
		return fmt.Errorf("per-node energy %v, want %v", got.PerNodeJ, want.PerNodeJ)
	}
	if math.Abs(got.EnergyJ-want.EnergyJ) > 1e-12*math.Abs(want.EnergyJ) {
		return fmt.Errorf("energy %v, want %v", got.EnergyJ, want.EnergyJ)
	}
	if len(got.Values) != len(want.Values) {
		return fmt.Errorf("%d values, want %d", len(got.Values), len(want.Values))
	}
	for d, v := range want.Values {
		if gv, ok := got.Values[d]; !ok || math.Float64bits(gv) != math.Float64bits(v) {
			return fmt.Errorf("destination %d = %v, want %v", d, gv, v)
		}
	}
	if len(got.Reports) != len(want.Reports) {
		return fmt.Errorf("%d reports, want %d", len(got.Reports), len(want.Reports))
	}
	for d, w := range want.Reports {
		g := got.Reports[d]
		if g == nil || g.Dest != w.Dest || g.Fresh != w.Fresh || g.Starved != w.Starved || g.DestDead != w.DestDead ||
			!reflect.DeepEqual(g.Covered, w.Covered) || !reflect.DeepEqual(g.Missing, w.Missing) {
			return fmt.Errorf("report %+v, want %+v", g, w)
		}
	}
	return nil
}
