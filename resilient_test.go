package m2m

import (
	"testing"

	"m2m/internal/failure"
	"m2m/internal/routing"
)

// fixedGen feeds the same per-node readings every round — distinct values
// per node, so exact-value comparisons are meaningful.
type fixedGen map[NodeID]float64

func (g fixedGen) Next() map[NodeID]float64 {
	out := make(map[NodeID]float64, len(g))
	for n, v := range g {
		out[n] = v
	}
	return out
}

func chaosFixture(t testing.TB, seed int64) (*Network, []Spec, fixedGen) {
	t.Helper()
	net := RandomNetwork(50, seed)
	specs, err := net.GenerateWorkload(WorkloadConfig{
		NumDests: 6, SourcesPerDest: 6, Dispersion: 0.9, MaxHops: 4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := make(fixedGen, net.Len())
	for i := 0; i < net.Len(); i++ {
		gen[NodeID(i)] = float64(i%17) + 0.25
	}
	return net, specs, gen
}

// TestResilientFaultFree pins the zero-fault contract: with no injector a
// resilient session reproduces Execute bit for bit, round after round,
// and never recovers from anything.
func TestResilientFaultFree(t *testing.T) {
	net, specs, gen := chaosFixture(t, 31)
	s, err := NewResilientSession(net, specs, RouterReversePath, gen, nil, ResilientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := net.NewInstance(specs, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(p, net, gen.Next())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		step, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if step.EnergyJ != want.EnergyJ {
			t.Fatalf("round %d: energy %v != %v", r, step.EnergyJ, want.EnergyJ)
		}
		if step.Fresh != len(specs) || step.Stale != 0 || step.Starved != 0 || step.Detours != 0 {
			t.Fatalf("round %d: %+v, want all fresh", r, step)
		}
		for d, v := range want.Values {
			if step.Values[d] != v {
				t.Fatalf("round %d: value at %d = %v, want %v (bit-exact)", r, d, step.Values[d], v)
			}
		}
	}
	if len(s.Recoveries()) != 0 || len(s.DeadNodes()) != 0 {
		t.Fatalf("phantom recovery: %v %v", s.Recoveries(), s.DeadNodes())
	}
}

// TestChaosSoakCrashRecovery is the acceptance soak: a seeded injector
// crashes a node mid-session; the session must detect it from observable
// outcomes alone, replan incrementally, and afterwards serve every
// surviving destination the exact value a from-scratch Optimize+Execute
// on the pruned workload computes.
func TestChaosSoakCrashRecovery(t *testing.T) {
	net, specs, gen := chaosFixture(t, 7)

	// Crash a relay that carries traffic: the first source of the first
	// spec, at round 2.
	dead := specs[0].Func.Sources()[0]
	const crashRound = 2
	inj := NewFaultInjector(7)
	inj.Crash(dead, crashRound)
	if err := inj.Validate(); err != nil {
		t.Fatal(err)
	}
	g2, err := failure.RemoveNode(net.Graph, dead)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Components()) > 2 { // dead node itself is one component
		t.Skip("crash partitions this network; recovery undefined")
	}

	s, err := NewResilientSession(net, specs, RouterReversePath, gen, inj, ResilientConfig{MissThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	var recovery *RecoveryEvent
	for r := 0; r < 20 && recovery == nil; r++ {
		step, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if r < crashRound && (step.Fresh != len(specs) || len(step.Recoveries) != 0) {
			t.Fatalf("pre-crash round %d not clean: %+v", r, step)
		}
		if len(step.Recoveries) > 0 {
			recovery = step.Recoveries[0]
		}
	}
	if recovery == nil {
		t.Fatal("crash never detected")
	}
	if recovery.Dead != dead {
		t.Fatalf("declared %d dead, want %d", recovery.Dead, dead)
	}
	if recovery.DetectRounds < 3 || recovery.Round < crashRound {
		t.Fatalf("implausible detection: %+v", recovery)
	}
	if recovery.ReplanBytes <= 0 || recovery.ReplanJ <= 0 {
		t.Fatalf("free replan: %+v", recovery)
	}
	if recovery.EdgesReused == 0 {
		t.Fatalf("recovery reused nothing: %+v", recovery)
	}
	if got := s.DeadNodes(); len(got) != 1 || got[0] != dead {
		t.Fatalf("dead set %v, want [%d]", got, dead)
	}

	// Settle and check the healed steady state.
	var last *ResilientStep
	for r := 0; r < 3; r++ {
		last, err = s.Step()
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.Starved != 0 || last.Stale != 0 {
		t.Fatalf("post-recovery round not fresh: %+v", last)
	}
	if recovery.RecoverRounds < 0 {
		t.Fatalf("recovery never closed out: %+v", recovery)
	}

	// Ground truth: plan the pruned workload from scratch on the pruned
	// graph and execute it fault-free.
	pruned, _, err := failure.PruneSpecs(specs, dead)
	if err != nil {
		t.Fatal(err)
	}
	net2 := &Network{Layout: net.Layout, Graph: g2, Radio: net.Radio}
	inst2, err := net2.NewInstance(pruned, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Optimize(inst2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(p2, net2, gen.Next())
	if err != nil {
		t.Fatal(err)
	}
	if len(last.Values) != len(want.Values) {
		t.Fatalf("session serves %d destinations, from-scratch serves %d", len(last.Values), len(want.Values))
	}
	for d, v := range want.Values {
		if last.Values[d] != v {
			t.Fatalf("dest %d: recovered value %v, from-scratch %v (want exact)", d, last.Values[d], v)
		}
	}
}

// TestResilientTransientOutage pins the transient path: a short link
// outage is ridden out with milestone detours — affected destinations go
// stale, nobody is declared dead, no replanning happens, and everything
// is fresh again once the link returns.
func TestResilientTransientOutage(t *testing.T) {
	net, specs, gen := chaosFixture(t, 23)
	inst, err := net.NewInstance(specs, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	// Take down a non-critical plan edge for rounds 1–2.
	victim := routing.Edge{From: -1, To: -1}
	for _, e := range inst.EdgeList {
		crit, err := failure.Critical(net.Graph, e.From, e.To)
		if err != nil {
			t.Fatal(err)
		}
		if !crit {
			victim = e
			break
		}
	}
	if victim.From < 0 {
		t.Skip("every plan edge is critical in this network")
	}
	inj := NewFaultInjector(23)
	inj.AddOutage(victim, 1, 2)
	if err := inj.Validate(); err != nil {
		t.Fatal(err)
	}

	s, err := NewResilientSession(net, specs, RouterReversePath, gen, inj, ResilientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	detours := 0
	for r := 0; r < 6; r++ {
		step, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		detours += step.Detours
		switch {
		case r == 0 || r >= 3:
			if step.Fresh != len(specs) {
				t.Fatalf("round %d outside the outage not fresh: %+v", r, step)
			}
		default: // rounds 1–2: the outage bites
			if step.Detours == 0 {
				t.Fatalf("round %d inside the outage did not detour: %+v", r, step)
			}
		}
	}
	if detours == 0 {
		t.Fatal("outage never detoured")
	}
	if len(s.Recoveries()) != 0 || len(s.DeadNodes()) != 0 {
		t.Fatalf("transient outage escalated: %v %v", s.Recoveries(), s.DeadNodes())
	}
}

// TestChaosSoakLossAndCrash runs the session under sustained packet loss
// plus a crash: loss must be ridden out (no node other than the crashed
// one is ever declared dead), and the session must keep serving values.
func TestChaosSoakLossAndCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	net, specs, gen := chaosFixture(t, 13)
	dead := specs[1].Func.Sources()[0]
	inj := NewFaultInjector(13)
	inj.WithUniformLoss(0.05)
	inj.Crash(dead, 4)
	if err := inj.Validate(); err != nil {
		t.Fatal(err)
	}
	g2, err := failure.RemoveNode(net.Graph, dead)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Components()) > 2 {
		t.Skip("crash partitions this network; recovery undefined")
	}

	s, err := NewResilientSession(net, specs, RouterReversePath, gen, inj, ResilientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	detours := 0
	for r := 0; r < 30; r++ {
		step, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		detours += step.Detours
	}
	if got := s.DeadNodes(); len(got) != 1 || got[0] != dead {
		t.Fatalf("dead set %v, want exactly [%d] — loss misread as crash", got, dead)
	}
	recs := s.Recoveries()
	if len(recs) != 1 {
		t.Fatalf("%d recoveries, want 1", len(recs))
	}
	if s.TotalEnergyJ() <= 0 {
		t.Fatal("free session")
	}
	// Under 5% loss with retries the session should occasionally detour
	// rather than declare nodes dead.
	t.Logf("30 rounds: %d detours, recovery %+v", detours, recs[0])
}

// TestResilientAsyncFaultFree pins the async zero-fault contract: with no
// injector the event-driven session reproduces Execute bit for bit —
// values AND energy — while reporting a positive makespan.
func TestResilientAsyncFaultFree(t *testing.T) {
	net, specs, gen := chaosFixture(t, 31)
	s, err := NewResilientSession(net, specs, RouterReversePath, gen, nil,
		ResilientConfig{Async: &AsyncConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := net.NewInstance(specs, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(p, net, gen.Next())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		step, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if step.EnergyJ != want.EnergyJ {
			t.Fatalf("round %d: energy %v != %v", r, step.EnergyJ, want.EnergyJ)
		}
		if step.Fresh != len(specs) || step.DeadlineMisses != 0 {
			t.Fatalf("round %d: %+v, want all fresh with no deadline misses", r, step)
		}
		if step.MakespanMS <= 0 {
			t.Fatalf("round %d: makespan %v, want > 0", r, step.MakespanMS)
		}
		for d, v := range want.Values {
			if step.Values[d] != v {
				t.Fatalf("round %d: value at %d = %v, want %v (bit-exact)", r, d, step.Values[d], v)
			}
		}
	}
}

// TestResilientAsyncLossyChannel soaks the async session under loss,
// jitter, duplication, and reordering at once: values served fresh are
// exact, nothing is ever misdeclared dead, and the dedup window keeps
// duplicate deliveries from corrupting aggregates.
func TestResilientAsyncLossyChannel(t *testing.T) {
	net, specs, gen := chaosFixture(t, 47)
	inst, err := net.NewInstance(specs, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(p, net, gen.Next())
	if err != nil {
		t.Fatal(err)
	}
	inj := NewFaultInjector(47)
	inj.WithUniformLoss(0.1).WithJitter(2, 15).WithDuplication(0.2).WithReorder(0.2, 30)
	if err := inj.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := NewResilientSession(net, specs, RouterReversePath, gen, inj,
		ResilientConfig{Async: &AsyncConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	freshRounds := 0
	for r := 0; r < 12; r++ {
		step, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if step.Fresh == len(specs) {
			freshRounds++
			for d, v := range want.Values {
				if step.Values[d] != v {
					t.Fatalf("round %d: fresh value at %d = %v, want %v", r, d, step.Values[d], v)
				}
			}
		}
	}
	if freshRounds == 0 {
		t.Fatal("10% loss starved every round — adaptive ARQ not riding it out")
	}
	if len(s.DeadNodes()) != 0 {
		t.Fatalf("loss misdeclared nodes dead: %v", s.DeadNodes())
	}
}

// TestResilientAsyncCrashRecovery runs the crash soak through the async
// executor: detection, incremental replan, and post-recovery exactness
// must all survive the switch, with RTT estimators and last-known caches
// inherited across the replan.
func TestResilientAsyncCrashRecovery(t *testing.T) {
	net, specs, gen := chaosFixture(t, 7)
	dead := specs[0].Func.Sources()[0]
	inj := NewFaultInjector(7)
	inj.Crash(dead, 2)
	g2, err := failure.RemoveNode(net.Graph, dead)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Components()) > 2 {
		t.Skip("crash partitions this network; recovery undefined")
	}
	s, err := NewResilientSession(net, specs, RouterReversePath, gen, inj,
		ResilientConfig{MissThreshold: 3, Async: &AsyncConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	var recovery *RecoveryEvent
	for r := 0; r < 20 && recovery == nil; r++ {
		step, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(step.Recoveries) > 0 {
			recovery = step.Recoveries[0]
		}
	}
	if recovery == nil || recovery.Dead != dead {
		t.Fatalf("recovery %+v, want node %d declared", recovery, dead)
	}
	var last *ResilientStep
	for r := 0; r < 3; r++ {
		if last, err = s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if last.Starved != 0 || last.Stale != 0 {
		t.Fatalf("post-recovery async round not fresh: %+v", last)
	}
	pruned, _, err := failure.PruneSpecs(specs, dead)
	if err != nil {
		t.Fatal(err)
	}
	net2 := &Network{Layout: net.Layout, Graph: g2, Radio: net.Radio}
	inst2, err := net2.NewInstance(pruned, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Optimize(inst2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(p2, net2, gen.Next())
	if err != nil {
		t.Fatal(err)
	}
	for d, v := range want.Values {
		if last.Values[d] != v {
			t.Fatalf("dest %d: recovered async value %v, from-scratch %v", d, last.Values[d], v)
		}
	}
}
