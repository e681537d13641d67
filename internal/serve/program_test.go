package serve

import (
	"fmt"
	"sync"
	"testing"

	"m2m"
	"m2m/internal/chaos"
)

// TestSharedProgramSessionsIsolated: sessions of one cached plan all run
// off the entry's single compiled program, yet each owns its runtime.
// Sessions differing in battery, loss plus a crash (they replan and leave
// the shared program), Byzantine quarantine and a collision channel that
// switches them to TDMA are built as descriptions through the session
// builder and step concurrently; each must match, round for round, a twin
// wired by hand with NewResilientSessionWithPlan, which compiles a
// program of its own. Run under -race this is also the data-race gate of
// the sharing.
func TestSharedProgramSessionsIsolated(t *testing.T) {
	s, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req, err := DecodeCreateSession(createBody(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.buildSession(req); err != nil {
		t.Fatal(err)
	}
	key, err := req.PlanKey()
	if err != nil {
		t.Fatal(err)
	}
	entry, err := s.cache.get(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := s.cache.program(entry)
	if err != nil {
		t.Fatal(err)
	}
	n := entry.net.Len()
	sources := entry.specs[0].Func.Sources()
	liar, crashed := sources[0], sources[len(sources)-1]

	type variant struct {
		name string
		// desc is the variant as the shared session's description; faults
		// and battery wire the twin's per-session state by hand. Every
		// session builds its own.
		desc      chaos.Scenario
		faults    func() m2m.FaultSchedule
		batteryJ  float64
		byzantine bool
		exercised func(*m2m.ResilientStep) bool
	}
	variants := []variant{
		{name: "fault-free", exercised: func(st *m2m.ResilientStep) bool { return st.Fresh > 0 }},
		{name: "battery", desc: chaos.Scenario{Battery: &chaos.BatteryDim{CapacityJ: 0.05}}, batteryJ: 0.05,
			exercised: func(st *m2m.ResilientStep) bool { return len(st.Depleted) > 0 }},
		{name: "loss+crash", desc: chaos.Scenario{FaultSeed: 5, Loss: 0.1, Crashes: []chaos.CrashDim{{Node: int(crashed), Round: 3}}},
			faults: func() m2m.FaultSchedule {
				return m2m.NewFaultInjector(5).WithUniformLoss(0.1).Crash(crashed, 3)
			}, exercised: func(st *m2m.ResilientStep) bool { return len(st.Recoveries) > 0 }},
		{name: "byzantine", desc: chaos.Scenario{FaultSeed: 6, Byzantine: []chaos.ByzDim{{Node: int(liar), Mode: "stuck", Param: 5000}}},
			byzantine: true, faults: func() m2m.FaultSchedule {
				return m2m.NewFaultInjector(6).WithByzantine(liar, m2m.ByzStuck, 5000, 0, m2m.Forever)
			}, exercised: func(st *m2m.ResilientStep) bool { return len(st.Excisions) > 0 }},
		{name: "collisions", desc: chaos.Scenario{FaultSeed: 13, Collide: &chaos.CollideDim{}},
			faults: func() m2m.FaultSchedule {
				return m2m.NewFaultInjector(13).WithCollisions(0)
			}, exercised: func(st *m2m.ResilientStep) bool { return st.TDMA }},
	}
	build := func(v variant, shared bool) (*m2m.ResilientSession, error) {
		gen := sweepSeedReadings(n, 77)
		if shared {
			v.desc.Nodes = n
			return entry.session(v.desc, prog, gen)
		}
		var faults m2m.FaultSchedule
		if v.faults != nil {
			faults = v.faults()
		}
		var cfg m2m.ResilientConfig
		if v.batteryJ > 0 {
			bat, err := m2m.NewBattery(n, v.batteryJ)
			if err != nil {
				return nil, err
			}
			cfg.Battery = bat
		}
		if v.byzantine {
			cfg.Byzantine = &m2m.ByzantineConfig{}
		}
		return m2m.NewResilientSessionWithPlan(entry.net, entry.sessionSpecs(), entry.kind, entry.inst, entry.plan, gen, faults, cfg)
	}

	const rounds = 24
	type trace struct {
		hashes    []string
		energies  []float64
		exercised bool
		err       error
	}
	run := func(v variant, shared bool) (tr trace) {
		sess, err := build(v, shared)
		if err != nil {
			tr.err = err
			return tr
		}
		for r := 0; r < rounds; r++ {
			st, err := sess.Step()
			if err != nil {
				tr.err = fmt.Errorf("round %d: %w", r, err)
				return tr
			}
			tr.hashes = append(tr.hashes, HashValues(st.Values))
			tr.energies = append(tr.energies, st.EnergyJ)
			tr.exercised = tr.exercised || v.exercised(st)
		}
		return tr
	}

	shared := make([]trace, len(variants))
	twins := make([]trace, len(variants))
	var wg sync.WaitGroup
	for i, v := range variants {
		wg.Add(2)
		go func() { defer wg.Done(); shared[i] = run(v, true) }()
		go func() { defer wg.Done(); twins[i] = run(v, false) }()
	}
	wg.Wait()

	for i, v := range variants {
		got, want := shared[i], twins[i]
		if got.err != nil || want.err != nil {
			t.Fatalf("%s: shared session %v, twin %v", v.name, got.err, want.err)
		}
		if !want.exercised {
			t.Fatalf("%s: the twin never exercised the variant's fault path", v.name)
		}
		for r := range want.hashes {
			if got.hashes[r] != want.hashes[r] || got.energies[r] != want.energies[r] {
				t.Fatalf("%s round %d: shared program (%s, %v J), own program (%s, %v J)",
					v.name, r, got.hashes[r], got.energies[r], want.hashes[r], want.energies[r])
			}
		}
	}
	if got := s.cache.programs.Load(); got != 1 {
		t.Fatalf("%d programs compiled for one cached plan, want 1", got)
	}
}
