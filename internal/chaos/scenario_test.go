package chaos

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"m2m/internal/graph"
	"m2m/internal/radio"
	"m2m/internal/topology"
	"m2m/internal/workload"
)

// scenarioGraph builds the connectivity graph the scenario's shape
// describes, the way the facade builder does.
func scenarioGraph(t testing.TB, sc *Scenario) *graph.Undirected {
	t.Helper()
	model := radio.DefaultModel()
	var l *topology.Layout
	switch sc.Topology {
	case "random":
		l = topology.Scaled(sc.Nodes, sc.TopoSeed)
	case "clustered":
		l = topology.ScaledClustered(sc.Nodes, sc.TopoSeed)
	case "grid":
		l = topology.Grid(sc.GridX, sc.GridY, sc.Spacing)
	default:
		t.Fatalf("unknown topology %q", sc.Topology)
	}
	return l.ConnectivityGraph(model.RangeMeters)
}

// populate draws the scenario's workload and resolves its schedules,
// returning the finished scenario (or an error from PopulateSchedules).
func populate(t testing.TB, sc *Scenario) error {
	t.Helper()
	g := scenarioGraph(t, sc)
	specs, err := workload.Generate(g, workload.Config{
		NumDests:       sc.Dests,
		SourcesPerDest: sc.SourcesPerDest,
		Dispersion:     sc.Dispersion,
		MaxHops:        sc.MaxHops,
		Kind:           workload.FuncKind(sc.FuncKind),
		Seed:           sc.WorkloadSeed,
	})
	if err != nil {
		return err
	}
	var protected, sources []graph.NodeID
	protected = append(protected, specs[0].Dest)
	protected = append(protected, specs[0].Func.Sources()...)
	seen := map[graph.NodeID]bool{}
	for _, sp := range specs {
		for _, s := range sp.Func.Sources() {
			if !seen[s] {
				seen[s] = true
				sources = append(sources, s)
			}
		}
	}
	return sc.PopulateSchedules(g, protected, sources)
}

func TestScenarioDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := NewScenario(seed), NewScenario(seed)
		if err := populate(t, a); err != nil {
			t.Fatalf("seed %d: populate: %v", seed, err)
		}
		if err := populate(t, b); err != nil {
			t.Fatalf("seed %d: populate twice: %v", seed, err)
		}
		ja, err := a.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		jb, err := b.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja, jb) {
			t.Fatalf("seed %d: two generations differ:\n%s\n---\n%s", seed, ja, jb)
		}
	}
}

func TestScenarioValidAcrossSeeds(t *testing.T) {
	n := int64(300)
	if testing.Short() {
		n = 60
	}
	families := map[string]int{}
	dims := map[string]int{}
	for seed := int64(1); seed <= n; seed++ {
		sc := NewScenario(seed)
		if err := populate(t, sc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := sc.Injector(); err != nil {
			t.Fatalf("seed %d: injector: %v", seed, err)
		}
		families[sc.Family]++
		if sc.Loss > 0 {
			dims["loss"]++
		}
		if sc.Async != nil {
			dims["async"]++
		}
		if len(sc.Outages) > 0 {
			dims["outages"]++
		}
		if sc.Partition != nil {
			dims["partition"]++
		}
		if len(sc.Crashes) > 0 {
			dims["crashes"]++
		}
		if len(sc.Depletions) > 0 {
			dims["depletions"]++
		}
		if sc.Battery != nil {
			dims["battery"]++
		}
		if len(sc.Byzantine) > 0 {
			dims["byzantine"]++
		}
		if sc.Collide != nil {
			dims["collide"]++
		}
		if sc.Sketch != "" {
			dims["sketch"]++
		}
	}
	// Every family and every fault dimension must actually occur, or the
	// fuzzer silently stops covering part of the space.
	for _, f := range []string{FamilyMild, FamilyChurn, FamilyAsync, FamilyBattery, FamilyByzantine, FamilyCollide, FamilyExtreme} {
		if families[f] == 0 {
			t.Errorf("family %q never generated in %d seeds", f, n)
		}
	}
	for _, d := range []string{"loss", "async", "outages", "partition", "crashes", "depletions", "battery", "byzantine", "collide", "sketch"} {
		if dims[d] == 0 {
			t.Errorf("dimension %q never generated in %d seeds", d, n)
		}
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		sc := NewScenario(seed)
		if err := populate(t, sc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		data, err := sc.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeScenario(data)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		data2, err := back.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("seed %d: JSON round-trip changed the scenario:\n%s\n---\n%s", seed, data, data2)
		}
	}
}

func TestScenarioCrashTargetsKeepSurvivorsConnected(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		sc := NewScenario(seed)
		if err := populate(t, sc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dead := map[int]bool{}
		for _, c := range sc.Crashes {
			if c.Node == 0 {
				t.Fatalf("seed %d: crash schedule touches the base anchor", seed)
			}
			if c.Revive == 0 {
				dead[c.Node] = true
			}
		}
		for _, d := range sc.Depletions {
			dead[d.Node] = true
		}
		if len(dead) == 0 {
			continue
		}
		g := scenarioGraph(t, sc)
		if !aliveConnected(g, dead) {
			t.Fatalf("seed %d: permanent deaths %v disconnect the survivors", seed, dead)
		}
	}
}

func TestDecodeScenarioRejectsBadCompositions(t *testing.T) {
	sc := NewScenario(7)
	if err := populate(t, sc); err != nil {
		t.Fatal(err)
	}
	// Force an illegal composition and make sure the codec rejects it.
	sc.Collide = &CollideDim{}
	sc.Async = &AsyncDim{BaseMS: 5}
	data, err := sc.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeScenario(data); err == nil {
		t.Fatal("collide+async repro decoded without error")
	}
	if _, err := DecodeScenario([]byte("{")); err == nil {
		t.Fatal("truncated repro decoded without error")
	}
}

// TestFaultOnlyScenario checks that a description carrying only Nodes
// and fault fields builds its injector, that the fault rules (finite
// values included) still bind it, that it is not a complete scenario, and
// that a description arming no fault builds no injector.
func TestFaultOnlyScenario(t *testing.T) {
	sc := &Scenario{Nodes: 10, FaultSeed: 3, Loss: 0.1, Crashes: []CrashDim{{Node: 0, Round: 1, Revive: 4}},
		Battery: &BatteryDim{CapacityJ: 2}, Partition: &PartitionDim{Side: []int{4, 5}, Start: 1, Rounds: 2}}
	if _, err := sc.Injector(); err != nil {
		t.Fatalf("fault-only description rejected: %v", err)
	}
	if sc.Validate() == nil {
		t.Error("description without a shape validated as a scenario")
	}
	if in, err := (&Scenario{Nodes: 10, Battery: &BatteryDim{CapacityJ: 2}}).Injector(); in != nil || err != nil {
		t.Errorf("a description arming no fault built injector %v (%v), want nil", in, err)
	}
	for name, mut := range map[string]func(*Scenario){
		"crash outside the network": func(c *Scenario) { c.Crashes[0].Node = 10 },
		"revive before crash":       func(c *Scenario) { c.Crashes[0].Revive = 1 },
		"collide with battery":      func(c *Scenario) { c.Collide = &CollideDim{} },
		"negative deadline":         func(c *Scenario) { c.Battery, c.Partition, c.Async = nil, nil, &AsyncDim{DeadlineMS: -1} },
		"negative evac horizon":     func(c *Scenario) { c.Battery.EvacHorizon = -1 },
		"NaN capacity":              func(c *Scenario) { c.Battery.CapacityJ = math.NaN() },
		"infinite capacity":         func(c *Scenario) { c.Battery.CapacityJ = math.Inf(1) },
		"NaN headroom":              func(c *Scenario) { c.Battery.Headroom = math.NaN() },
		"infinite base latency":     func(c *Scenario) { c.Battery, c.Partition, c.Async = nil, nil, &AsyncDim{BaseMS: math.Inf(1)} },
		"NaN jitter":                func(c *Scenario) { c.Battery, c.Partition, c.Async = nil, nil, &AsyncDim{JitterMS: math.NaN()} },
		"NaN duplication":           func(c *Scenario) { c.Battery, c.Partition, c.Async = nil, nil, &AsyncDim{DupProb: math.NaN()} },
		"infinite reorder delay":    func(c *Scenario) { c.Battery, c.Partition, c.Async = nil, nil, &AsyncDim{ReorderMS: math.Inf(1)} },
	} {
		c := *sc
		c.Crashes = slices.Clone(sc.Crashes)
		b := *sc.Battery
		c.Battery = &b
		mut(&c)
		if _, err := c.Injector(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzDecodeScenario feeds arbitrary bytes (seeded with real repros)
// through the repro codec: it must never panic, and anything it accepts
// must survive a re-encode/decode round trip and injector construction.
func FuzzDecodeScenario(f *testing.F) {
	for seed := int64(1); seed <= 5; seed++ {
		sc := NewScenario(seed)
		if err := populate(f, sc); err != nil {
			f.Fatal(err)
		}
		data, err := sc.EncodeJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"seed":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := DecodeScenario(data)
		if err != nil {
			return
		}
		out, err := sc.EncodeJSON()
		if err != nil {
			t.Fatalf("accepted scenario does not re-encode: %v", err)
		}
		if _, err := DecodeScenario(out); err != nil {
			t.Fatalf("re-encoded scenario rejected: %v", err)
		}
		// The injector may reject schedules Validate cannot see (e.g.
		// lying windows overlapping dead spans) but must not panic.
		_, _ = sc.Injector()
	})
}
