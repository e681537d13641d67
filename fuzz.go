package m2m

// Scenario building for the deterministic simulation-testing subsystem:
// one int64 seed determines a topology, workload, router, executor,
// readings stream and a composed fault schedule (internal/chaos
// scenario generator), and NewScenarioRun turns the pure-data scenario
// into a live ResilientSession ready to step. The invariant checkers
// (internal/invariant) and the m2mfuzz runner drive runs through this
// file.

import (
	"fmt"
	"slices"
	"strings"

	"m2m/internal/chaos"
	"m2m/internal/workload"
)

// scenarioWorkloadNodes extracts the nodes PopulateSchedules needs: the
// protected anchor (the first spec's destination and sources, which the
// generator never kills so the pruned workload stays non-empty) and the
// deduplicated source pool liars are drawn from.
func scenarioWorkloadNodes(specs []Spec) (protected, sources []NodeID) {
	protected = append(protected, specs[0].Dest)
	protected = append(protected, specs[0].Func.Sources()...)
	seen := map[NodeID]bool{}
	for _, sp := range specs {
		for _, s := range sp.Func.Sources() {
			if !seen[s] {
				seen[s] = true
				sources = append(sources, s)
			}
		}
	}
	return protected, sources
}

// Scenario is one fully-determined simulation-testing run: pure data,
// JSON-serializable, shrinkable (see internal/chaos/scenario.go).
type Scenario = chaos.Scenario

// DecodeScenario parses and validates a JSON scenario repro.
func DecodeScenario(data []byte) (*Scenario, error) { return chaos.DecodeScenario(data) }

// GenerateScenario draws the complete scenario for a seed: the shape
// first, then the concrete network and workload, then fault schedules
// resolved against them (outages on real links, partition sides grown
// connected, crash sets that never disconnect the survivors, liars
// drawn from the workload's sources).
func GenerateScenario(seed int64) (*Scenario, error) {
	sc := chaos.NewScenario(seed)
	net, specs, err := buildScenarioShape(sc)
	if err != nil {
		return nil, err
	}
	protected, sources := scenarioWorkloadNodes(specs)
	if err := sc.PopulateSchedules(net.Graph, protected, sources); err != nil {
		return nil, err
	}
	return sc, nil
}

// ScenarioRun is a live scenario: the built network and workload, the
// composed fault injector, the optional battery ledger, and the
// resilient session stepping under all of them.
type ScenarioRun struct {
	Scenario *Scenario
	Net      *Network
	Specs    []Spec
	Injector *FaultInjector
	Battery  *Battery // nil unless the scenario carries a ledger
	Session  *ResilientSession
	// Kind is the resolved router, so checkers can rebuild plans from
	// scratch with the session's exact routing policy.
	Kind RouterKind

	gen *recordingGen
}

// NewScenarioRun builds the network, workload, injector, ledger and
// session a populated scenario describes. Building the same scenario
// twice yields byte-identical runs; building from a decoded JSON repro
// yields the original run.
func NewScenarioRun(sc *Scenario) (*ScenarioRun, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	net, specs, err := buildScenarioShape(sc)
	if err != nil {
		return nil, err
	}
	kind, err := ParseRouter(sc.Router)
	if err != nil {
		return nil, err
	}
	return NewScenarioRunOn(sc, net, specs, kind, buildScenarioReadings(sc))
}

// NewScenarioRunOn builds the injector, ledger and session that sc's
// fault fields and session knobs describe, on an already-built network,
// workload, router and reading stream. It checks only Nodes and the
// fault fields of sc; the shape fields matter only when a battery ledger
// derives its capacity from Headroom.
func NewScenarioRunOn(sc *Scenario, net *Network, specs []Spec, kind RouterKind, readings ReadingGenerator) (*ScenarioRun, error) {
	if sc.Nodes != net.Len() {
		return nil, fmt.Errorf("m2m: scenario describes %d nodes, network has %d", sc.Nodes, net.Len())
	}
	inj, err := sc.Injector()
	if err != nil {
		return nil, err
	}
	cfg := ResilientConfig{
		MaxRetries:    sc.MaxRetries,
		MissThreshold: sc.MissThreshold,
		DetourBudget:  sc.DetourBudget,
	}
	if a := sc.Async; a != nil {
		cfg.Async = &AsyncConfig{DeadlineMS: a.DeadlineMS}
	}
	if len(sc.Byzantine) > 0 {
		cfg.Byzantine = &ByzantineConfig{}
	}
	if c := sc.Collide; c != nil && c.EagerTDMA {
		cfg.TDMASwitchThreshold = 0.01
	}
	var bat *Battery
	if b := sc.Battery; b != nil {
		if b.CapacityJ == 0 {
			capJ, err := scenarioBatteryCapacity(sc, net, specs, kind)
			if err != nil {
				return nil, err
			}
			b.CapacityJ = capJ
		}
		if bat, err = NewBattery(net.Len(), b.CapacityJ); err != nil {
			return nil, err
		}
		cfg.Battery = bat
		cfg.EvacuateHorizonRounds = b.EvacHorizon
	}

	gen := &recordingGen{inner: readings}
	sess, err := NewResilientSession(net, specs, kind, gen, inj, cfg)
	if err != nil {
		return nil, err
	}
	return &ScenarioRun{
		Scenario: sc,
		Net:      net,
		Specs:    specs,
		Injector: inj,
		Battery:  bat,
		Session:  sess,
		Kind:     kind,
		gen:      gen,
	}, nil
}

// Step runs the next round.
func (r *ScenarioRun) Step() (*ResilientStep, error) { return r.Session.Step() }

// Readings returns the reading map of the last stepped round (nil
// before the first step). Checkers use it as the ground truth the
// in-network aggregates are compared against.
func (r *ScenarioRun) Readings() map[NodeID]float64 { return r.gen.last }

// recordingGen remembers the last emitted reading map so checkers can
// evaluate the out-of-network reference aggregate for the same round.
type recordingGen struct {
	inner ReadingGenerator
	last  map[NodeID]float64
}

func (g *recordingGen) Next() map[NodeID]float64 {
	g.last = g.inner.Next()
	return g.last
}

func buildScenarioShape(sc *Scenario) (*Network, []Spec, error) {
	var net *Network
	switch sc.Topology {
	case "random":
		net = RandomNetwork(sc.Nodes, sc.TopoSeed)
	case "clustered":
		net = ClusteredNetwork(sc.Nodes, sc.TopoSeed)
	case "grid":
		net = GridNetwork(sc.GridX, sc.GridY, sc.Spacing)
	default:
		return nil, nil, fmt.Errorf("m2m: unknown scenario topology %q", sc.Topology)
	}
	specs, err := net.GenerateWorkload(WorkloadConfig{
		NumDests:       sc.Dests,
		SourcesPerDest: sc.SourcesPerDest,
		Dispersion:     sc.Dispersion,
		MaxHops:        sc.MaxHops,
		Kind:           workload.FuncKind(sc.FuncKind),
		Seed:           sc.WorkloadSeed,
	})
	if err != nil {
		return nil, nil, err
	}
	if sc.Sketch != "" {
		for i, sp := range specs {
			f, err := scenarioSketchFunc(sc.Sketch, sp.Func.Sources())
			if err != nil {
				return nil, nil, err
			}
			specs[i] = Spec{Dest: sp.Dest, Func: f}
		}
	}
	return net, specs, nil
}

// scenarioSketchFunc swaps a generated workload function for a robust
// sketch over the same source set (domain [0,100], matching the reading
// generators; out-of-domain byzantine values clamp to the edge bucket).
func scenarioSketchFunc(kind string, sources []NodeID) (Func, error) {
	switch kind {
	case "qdigest":
		return NewQDigest(sources, 6, 0, 100, 0.5)
	case "tmean":
		return NewTrimmedMean(sources, 6, 0, 100, 0.25)
	case "hll":
		return NewHyperLogLog(sources, 4)
	default:
		return nil, fmt.Errorf("m2m: unknown scenario sketch %q", kind)
	}
}

// ParseRouter maps a router name — reverse, shared, spt or mindeg, the
// names a Scenario uses — to its RouterKind.
func ParseRouter(name string) (RouterKind, error) {
	if i := slices.Index(chaos.Routers, name); i >= 0 {
		return RouterKind(i), nil
	}
	return 0, fmt.Errorf("m2m: unknown router %q (want %s)", name, strings.Join(chaos.Routers, " | "))
}

func buildScenarioReadings(sc *Scenario) ReadingGenerator {
	n := sc.Nodes
	switch sc.Readings {
	case "walk":
		return NewRandomWalkReadings(n, sc.ReadingsSeed, 20, 1)
	case "diurnal":
		return NewDiurnalReadings(n, sc.ReadingsSeed, 12, 20, 10, 0.5)
	case "pulse":
		return NewPulseReadings(n, sc.ReadingsSeed, 0.1, 30)
	default: // "const"
		return NewConstantReadings(n, 20)
	}
}

// scenarioBatteryCapacity prices one fault-free round of the scenario's
// plan and scales the hottest node's burn by the headroom over the full
// horizon, so headroom < 1 makes relays brown out mid-run and headroom
// well above 1 keeps the ledger a pure accounting check. The result is
// written back into the scenario so its JSON repro pins the ledger.
func scenarioBatteryCapacity(sc *Scenario, net *Network, specs []Spec, kind RouterKind) (float64, error) {
	inst, err := net.NewInstance(specs, kind)
	if err != nil {
		return 0, err
	}
	p, err := Optimize(inst)
	if err != nil {
		return 0, err
	}
	probe := buildScenarioReadings(sc)
	res, err := Execute(p, net, probe.Next())
	if err != nil {
		return 0, err
	}
	maxJ := 0.0
	for _, j := range res.PerNodeJ {
		if j > maxJ {
			maxJ = j
		}
	}
	if maxJ == 0 {
		maxJ = net.Radio.UnicastJoules(16)
	}
	return sc.Battery.Headroom * maxJ * float64(sc.Rounds), nil
}
