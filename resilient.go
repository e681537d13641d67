package m2m

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"m2m/internal/chaos"
	"m2m/internal/failure"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/routing"
	"m2m/internal/sim"
	"m2m/internal/wire"
)

// FaultSchedule is what the lossy executor queries while a round runs:
// which nodes have crashed and which transmission attempts are heard.
// FaultInjector implements it; tests may supply their own deterministic
// schedules.
type FaultSchedule = sim.Faults

// FaultInjector is the deterministic, seedable fault injector: per-link
// stochastic packet loss, transient link outages, and permanent node
// crashes, all reproducible from the seed alone.
type FaultInjector = chaos.Injector

// NewFaultInjector returns an injector that injects nothing until loss,
// outages, or crashes are configured on it.
func NewFaultInjector(seed int64) *FaultInjector { return chaos.New(seed) }

// DeliveryReport describes how well one destination was served by a lossy
// round: exactly (fresh), over partial source coverage (stale), or not at
// all (starved).
type DeliveryReport = sim.DeliveryReport

// LossyResult reports one round executed under a fault schedule.
type LossyResult = sim.LossyResult

// AsyncConfig tunes the event-driven asynchronous executor: adaptive
// retransmission bounds, the round deadline, and the dedup window.
type AsyncConfig = sim.AsyncConfig

// RecoveryEvent records one permanent-failure recovery performed by a
// ResilientSession.
type RecoveryEvent struct {
	// Dead is the node that was declared permanently failed.
	Dead NodeID
	// Round is the round in which the declaration and replan happened.
	Round int
	// DetectRounds is how many rounds passed between the first
	// unexplained miss implicating the node and its declaration.
	DetectRounds int
	// RecoverRounds is how many rounds after the replan every surviving
	// destination reported fresh again; -1 while that has not happened.
	RecoverRounds int
	// ReplanJ and ReplanBytes price disseminating the incremental plan
	// update (diff against the old tables) from the base station.
	ReplanJ     float64
	ReplanBytes int
	// EdgesReused and EdgesSolved quantify the incremental re-optimization
	// (Corollary 1): single-edge solutions carried over vs re-solved.
	EdgesReused int
	EdgesSolved int
	// DroppedDests lists destinations that left the workload — the dead
	// node itself and any destination whose last source died with it.
	DroppedDests []NodeID
}

// ResilientConfig tunes failure detection and ride-out in a
// ResilientSession. Zero values select the defaults noted on each field.
type ResilientConfig struct {
	// MaxRetries bounds stop-and-wait retransmissions per message
	// (default 3).
	MaxRetries int
	// MissThreshold is K, the consecutive rounds a node must be
	// implicated without vindication before it is declared permanently
	// dead and planned around (default 3).
	MissThreshold int
	// DetourBudget bounds how many consecutive failed rounds of a single
	// link the session rides out with milestone detours before it stops
	// paying for them (default 5). Any delivery on the link resets it.
	DetourBudget int
	// Async, when non-nil, switches rounds to the event-driven
	// asynchronous executor: adaptive per-link retransmission timers
	// replace the fixed stop-and-wait budget, duplicated and reordered
	// deliveries are tolerated, and destinations close at the configured
	// deadline with graceful degradation. RTT estimators and last-known
	// value caches survive recovery replans. MaxRetries still bounds
	// retransmissions unless Async.MaxRetries overrides it.
	Async *AsyncConfig
	// Battery, when non-nil, attaches a shared per-node energy ledger:
	// every round debits each node's actual spend (per-attempt ARQ
	// retransmissions, beacons, and dissemination traffic included) and a
	// node whose residual hits zero falls permanently silent, to be
	// condemned and planned around through the same machinery as a crash.
	// The ledger must cover exactly the network's nodes and is shared
	// across every replan's engine.
	Battery *Battery
	// EvacuateHorizonRounds enables proactive evacuation (battery sessions
	// only): when a beaconing node's forecast time-to-death drops to this
	// many rounds or fewer, the session replans traffic off it before it
	// dies. Zero disables evacuation — depleted nodes are then handled
	// reactively, after the outage. Requires RouterReversePath.
	EvacuateHorizonRounds int
	// EvacuateThreshold is the residual-charge fraction below which a node
	// starts piggybacking low-battery beacons toward the base station
	// (default 0.25).
	EvacuateThreshold float64
	// EvacuatePenalty is the edge-weight multiplier applied to edges
	// incident to evacuating nodes when routes are rebuilt, steering
	// detours away from dying relays (default 8, minimum 1).
	EvacuatePenalty float64
	// TDMASwitchThreshold is the smoothed collision-loss fraction
	// (collided attempts over transmissions) at which the session stops
	// riding contention out and switches to scheduled transmission: it
	// builds a TDMA frame from the plan's wait-for DAG, round-trips it
	// through the wire codec, floods it to every node at its priced energy
	// cost, and drives all further rounds (and every replan's engine) off
	// it. Zero selects the default 0.15; negative disables the switch.
	// Irrelevant unless the fault schedule enables collisions.
	TDMASwitchThreshold float64
	// Byzantine, when non-nil, arms the outlier-quarantine loop: after
	// every round the base station residual-tests each monitored source's
	// reported reading against the robust (median/MAD) population
	// estimate, excises sustained outliers from the workload via an
	// incremental replan, and re-admits them after sustained clean
	// behavior. Lies reach the session only through a fault schedule that
	// implements Adversary (a FaultInjector with WithByzantine windows).
	Byzantine *ByzantineConfig
}

// Validate rejects configurations the zero-value defaults cannot repair:
// negative counters, thresholds outside their domain, non-finite values,
// and flag combinations that contradict each other. NewResilientSession
// calls it, so bad configs fail at construction instead of deep inside a
// step; callers composing configs programmatically (scenario generators)
// can call it early to reject a composition before paying for a plan.
// A negative TDMASwitchThreshold is valid — it disables the switch.
func (c ResilientConfig) Validate() error {
	if c.MaxRetries < 0 {
		return fmt.Errorf("m2m: negative retry budget %d", c.MaxRetries)
	}
	if c.MissThreshold < 0 {
		return fmt.Errorf("m2m: negative miss threshold %d", c.MissThreshold)
	}
	if c.DetourBudget < 0 {
		return fmt.Errorf("m2m: negative detour budget %d", c.DetourBudget)
	}
	if c.EvacuateHorizonRounds < 0 {
		return fmt.Errorf("m2m: negative evacuation horizon %d", c.EvacuateHorizonRounds)
	}
	if c.EvacuateHorizonRounds > 0 && c.Battery == nil {
		return fmt.Errorf("m2m: evacuation horizon set without a battery ledger")
	}
	if math.IsNaN(c.EvacuateThreshold) || c.EvacuateThreshold < 0 || c.EvacuateThreshold > 1 {
		return fmt.Errorf("m2m: evacuation threshold %g outside [0,1]", c.EvacuateThreshold)
	}
	if math.IsNaN(c.EvacuatePenalty) || (c.EvacuatePenalty != 0 && c.EvacuatePenalty < 1) {
		return fmt.Errorf("m2m: evacuation penalty %g below 1", c.EvacuatePenalty)
	}
	if math.IsNaN(c.TDMASwitchThreshold) || c.TDMASwitchThreshold > 1 {
		return fmt.Errorf("m2m: TDMA switch threshold %g above 1", c.TDMASwitchThreshold)
	}
	if c.Async != nil {
		if err := c.Async.Validate(); err != nil {
			return err
		}
	}
	if c.Byzantine != nil {
		if _, err := c.Byzantine.withDefaults(); err != nil {
			return err
		}
	}
	return nil
}

func (c ResilientConfig) withDefaults() ResilientConfig {
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MissThreshold == 0 {
		c.MissThreshold = 3
	}
	if c.DetourBudget == 0 {
		c.DetourBudget = 5
	}
	if c.EvacuateThreshold == 0 {
		c.EvacuateThreshold = 0.25
	}
	if c.EvacuatePenalty == 0 {
		c.EvacuatePenalty = 8
	}
	if c.TDMASwitchThreshold == 0 {
		c.TDMASwitchThreshold = 0.15
	}
	return c
}

// ResilientStep reports one round of a ResilientSession.
type ResilientStep struct {
	// Round is the 0-based round index.
	Round int
	// Values holds the last fresh (exact) value of every surviving
	// destination; a destination served only partially this round keeps
	// its previous value (stale).
	Values map[NodeID]float64
	// EnergyJ is the round's total radio energy: transmissions and
	// retries, milestone detours, and any replan dissemination.
	EnergyJ float64
	// Reports holds this round's per-destination delivery reports. The
	// map and the report structs are freshly allocated by the executor
	// every round; treat them as read-only.
	Reports map[NodeID]*DeliveryReport
	// DetourJ is the share of EnergyJ spent on milestone detours this
	// round. Detour traffic rides links outside the planned program, so
	// it is priced into EnergyJ but never debited against a battery
	// ledger.
	DetourJ float64
	// Fresh, Stale, and Starved count this round's destinations by how
	// well they were served.
	Fresh, Stale, Starved int
	// Detours is how many failed messages were ridden out via milestone
	// detours this round.
	Detours int
	// DeadlineMisses counts destinations that closed this round at the
	// deadline short of full coverage (async mode only).
	DeadlineMisses int
	// MakespanMS is the simulated wall-clock length of the round (async
	// mode only; zero in synchronous mode).
	MakespanMS float64
	// Recoveries lists permanent-failure recoveries performed this round
	// (usually empty).
	Recoveries []*RecoveryEvent
	// Quarantined counts nodes held in quarantine this round: alive but
	// severed from the base station by the round's failures, so they are
	// ineligible for condemnation until the cut heals.
	Quarantined int
	// Rejoins lists nodes that returned from a transient crash this round
	// and were re-admitted into the workload before it ran.
	Rejoins []NodeID
	// EpochLag counts alive nodes still running an older plan epoch after
	// this round's dissemination pass (their frames are fenced).
	EpochLag int
	// EpochDropped counts frames receivers heard but discarded this round
	// because their plan epoch mismatched the installed tables.
	EpochDropped int
	// Depleted lists the nodes whose battery hit zero during this round,
	// ascending (battery sessions only).
	Depleted []NodeID
	// Evacuations counts nodes proactively evacuated this round: their
	// forecast time-to-death crossed the horizon and the session shifted
	// traffic off them with an energy-weighted replan.
	Evacuations int
	// MinResidualJ is the smallest residual charge among non-depleted
	// nodes after the round (battery sessions only; zero otherwise, and
	// zero once every node is exhausted).
	MinResidualJ float64
	// Collisions counts transmission attempts destroyed by slot contention
	// this round (zero unless the fault schedule enables collisions).
	Collisions int
	// CollisionRate is this round's collided fraction of transmissions.
	CollisionRate float64
	// TDMA reports whether the session is in scheduled-transmission mode
	// after this round (the switch takes effect from the next round).
	TDMA bool
	// Suspects lists the monitored sources whose reported reading fell
	// outside the robust residual gate this round (byzantine sessions
	// only), in monitored order.
	Suspects []NodeID
	// Excisions lists the quarantine excisions performed this round.
	Excisions []*ExcisionEvent
	// Readmissions lists excised sources re-admitted this round after
	// sustained clean behavior.
	Readmissions []NodeID
}

// ResilientSession runs a workload continuously under a fault schedule
// and heals itself. Every round executes the full plan on the lossy
// engine (no temporal suppression — suppressed silence is
// indistinguishable from loss, so a resilient session always transmits;
// see Session for the suppression-based fair-weather variant). Faults are
// classified from observable outcomes only:
//
//   - Transient faults — lost attempts, link outages — are ridden out:
//     stop-and-wait retransmission first, then a milestone detour around
//     the failed link (failure.DetourHops) within a bounded budget.
//     Affected destinations go stale for a round or two and catch up on
//     the next fresh delivery.
//   - Persistent faults — a node silent or unreachable for MissThreshold
//     consecutive rounds — trigger recovery: the node is removed from the
//     graph, the workload pruned, routes rebuilt, the plan repaired
//     incrementally (Corollary 1), and the table diff disseminated at its
//     priced energy cost. The session then resumes on the healed plan.
//
// Detection relies on the lossy engine's keep-alive convention: an alive
// sender always transmits its planned messages, even empty, so silence on
// an edge implicates the sender and exhausted retries implicate the
// receiver — until either is vindicated by any successful send or
// receipt.
type ResilientSession struct {
	// The executing plan and its runtime. replan is the only writer.
	net    *Network
	kind   RouterKind
	specs  []Spec
	inst   *Instance
	plan   *Plan
	tables *Tables          // the plan's built tables, cached by currentTables
	prices map[NodeID]int64 // node prices the planner solves under; nil until an evacuation
	engine *sim.Engine      // fenced on pendingDiff (SetFence)
	runner *sim.AsyncRunner // non-nil when cfg.Async selects the event-driven executor
	gen    ReadingGenerator
	faults FaultSchedule
	cfg    ResilientConfig

	// The pristine topology and workload, kept for RestoreNode surgery and
	// spec re-admission when a transiently crashed node rejoins.
	origGraph *graph.Undirected
	origSpecs []Spec

	round  int
	values map[NodeID]float64
	totalJ float64
	dead   map[NodeID]bool // condemned nodes, planned around until they rejoin

	// Classification and condemnation: each node's consecutive rounds
	// implicated (and the first of them), the detour budget each link has
	// spent, and the recovery log; pending holds the recoveries still
	// waiting for an all-fresh round.
	misses     map[NodeID]int
	firstMiss  map[NodeID]int
	detourRuns map[routing.Edge]int
	recoveries []*RecoveryEvent
	pending    []*RecoveryEvent

	// Quarantine: the nodes of live components this round's failures
	// severed from the base station, re-derived every round.
	quarantined map[NodeID]bool

	// Contention: the smoothed collision-loss rate and whether the session
	// has switched to scheduled (TDMA) transmission. Once set, the switch
	// is permanent — every replan's engine gets a fresh frame.
	collRate float64
	tdma     bool

	// Epoch fence: every replan bumps planEpoch and owes the nodes whose
	// table blobs changed an epoch-stamped diff over the lossy channel.
	// Until its diff lands a node stays in pendingDiff, the set the
	// session's engine fences: every edge it touches drops its frames.
	planEpoch   uint32
	pendingDiff map[NodeID]bool

	evac *evacuation     // battery stage; nil unless evacuation is enabled
	byz  *byzantineAudit // byzantine stage; nil unless cfg.Byzantine is set
}

// evacuation is the battery stage's state: per-node spend observed at the
// last round boundary (to derive burn rates), the smoothed burn-rate
// estimates the base station has heard over beacons, and the nodes
// already evacuated.
type evacuation struct {
	prevSpent map[NodeID]float64
	burn      map[NodeID]float64
	evacuated map[NodeID]bool
}

// NewResilientSession optimizes the workload and prepares continuous
// lossy execution under the fault schedule. A nil schedule means a
// fault-free network (every round then matches Execute byte for byte).
func NewResilientSession(net *Network, specs []Spec, kind RouterKind, gen ReadingGenerator, faults FaultSchedule, cfg ResilientConfig) (*ResilientSession, error) {
	if err := validateSessionInputs(net, kind, gen, cfg); err != nil {
		return nil, err
	}
	inst, err := net.NewInstance(specs, kind)
	if err != nil {
		return nil, err
	}
	p, err := Optimize(inst)
	if err != nil {
		return nil, err
	}
	prog, err := CompileProgram(net, p)
	if err != nil {
		return nil, err
	}
	return newResilientSession(net, specs, kind, inst, prog, gen, faults, cfg)
}

// NewResilientSessionWithPlan is NewResilientSession with the expensive
// optimization already done: inst and p must be the instance and optimal
// plan of exactly (net, specs, kind) — typically a serving layer's plan
// cache entry, so thousands of identical tenants amortize one Optimize.
// The plan is adopted by reference and never mutated: the session's
// replans Reoptimize from it copy-on-write, so one plan may seed any
// number of concurrent sessions.
func NewResilientSessionWithPlan(net *Network, specs []Spec, kind RouterKind, inst *Instance, p *Plan, gen ReadingGenerator, faults FaultSchedule, cfg ResilientConfig) (*ResilientSession, error) {
	if err := validateSessionInputs(net, kind, gen, cfg); err != nil {
		return nil, err
	}
	if inst == nil || p == nil {
		return nil, fmt.Errorf("m2m: nil instance or plan")
	}
	prog, err := CompileProgram(net, p)
	if err != nil {
		return nil, err
	}
	return newResilientSession(net, specs, kind, inst, prog, gen, faults, cfg)
}

// Program is a plan compiled for round execution: the immutable message
// layout, static energy and slot program every round of the plan runs
// on. One Program may back any number of concurrent sessions; each keeps
// its own battery, adversary and transmission state.
type Program = sim.Program

// CompileProgram compiles p for execution on net's radio with the options
// every ResilientSession runs under — the compile half of session
// construction, which a serving layer caches next to the plan.
func CompileProgram(net *Network, p *Plan) (*Program, error) {
	return sim.Compile(p, net.Radio, sim.Options{MergeMessages: true})
}

// NewResilientSessionWithProgram is NewResilientSessionWithPlan with the
// compile already done: prog must come from CompileProgram(net, p) for the
// optimal plan p of (net, specs, kind) with instance inst. The session
// binds its own runtime to the shared program and never mutates it; a
// replan compiles a fresh program of its own.
func NewResilientSessionWithProgram(net *Network, specs []Spec, kind RouterKind, inst *Instance, prog *Program, gen ReadingGenerator, faults FaultSchedule, cfg ResilientConfig) (*ResilientSession, error) {
	if err := validateSessionInputs(net, kind, gen, cfg); err != nil {
		return nil, err
	}
	if inst == nil || prog == nil {
		return nil, fmt.Errorf("m2m: nil instance or program")
	}
	if prog.Radio != net.Radio {
		return nil, fmt.Errorf("m2m: program compiled for another radio model")
	}
	return newResilientSession(net, specs, kind, inst, prog, gen, faults, cfg)
}

// validateSessionInputs holds the constructor checks shared by both
// session entry points, so a cached-plan session rejects exactly what a
// from-scratch one would.
func validateSessionInputs(net *Network, kind RouterKind, gen ReadingGenerator, cfg ResilientConfig) error {
	if gen == nil {
		return fmt.Errorf("m2m: nil reading generator")
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Battery != nil && cfg.Battery.Len() != net.Len() {
		return fmt.Errorf("m2m: battery ledger covers %d nodes, network has %d", cfg.Battery.Len(), net.Len())
	}
	if cfg.EvacuateHorizonRounds > 0 && kind != RouterReversePath {
		return fmt.Errorf("m2m: evacuation requires RouterReversePath (weighted detours)")
	}
	return nil
}

// newResilientSession is the one root constructor every entry point ends
// in: it binds a fresh per-session engine (the session's battery ledger,
// its own round counters and transmission state) to the compiled program.
func newResilientSession(net *Network, specs []Spec, kind RouterKind, inst *Instance, prog *Program, gen ReadingGenerator, faults FaultSchedule, cfg ResilientConfig) (*ResilientSession, error) {
	s := &ResilientSession{
		net:         net,
		kind:        kind,
		specs:       specs,
		inst:        inst,
		plan:        prog.Plan,
		gen:         gen,
		faults:      faults,
		cfg:         cfg.withDefaults(),
		origGraph:   net.Graph.Clone(),
		origSpecs:   append([]Spec(nil), specs...),
		values:      make(map[NodeID]float64),
		misses:      make(map[NodeID]int),
		firstMiss:   make(map[NodeID]int),
		detourRuns:  make(map[routing.Edge]int),
		dead:        make(map[NodeID]bool),
		planEpoch:   1,
		pendingDiff: make(map[NodeID]bool),
		quarantined: make(map[NodeID]bool),
	}
	var err error
	if s.engine, s.runner, err = s.bind(prog, s.planEpoch); err != nil {
		return nil, err
	}
	if cfg.EvacuateHorizonRounds > 0 {
		s.evac = &evacuation{
			prevSpent: make(map[NodeID]float64),
			burn:      make(map[NodeID]float64),
			evacuated: make(map[NodeID]bool),
		}
	}
	if cfg.Byzantine != nil {
		if s.byz, err = newByzantineAudit(*cfg.Byzantine, specs); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// nodeDown reports whether n is out of action at the given round: crashed
// per the fault schedule, or battery-exhausted per the ledger.
func (s *ResilientSession) nodeDown(round int, n NodeID) bool {
	if b := s.cfg.Battery; b != nil && b.Depleted(n) {
		return true
	}
	return s.faults != nil && s.faults.NodeDead(round, n)
}

// Step executes the next round as a fixed sequence of stages, each owning
// its own state: re-admit revived nodes, run the plan under the fault
// schedule, track contention, quarantine severed components, classify what
// failed and condemn what looks permanent, audit readings for liars,
// observe batteries, and push owed table diffs over the lossy channel.
func (s *ResilientSession) Step() (*ResilientStep, error) {
	step := &ResilientStep{Round: s.round}
	if err := s.rejoinRevived(step); err != nil {
		return nil, err
	}
	cur := s.gen.Next()
	res, err := s.run(cur, step)
	if err != nil {
		return nil, err
	}
	if err := s.contend(res, step); err != nil {
		return nil, err
	}
	s.quarantine(res, step)
	s.classify(res, step)
	if err := s.condemn(res, step); err != nil {
		return nil, err
	}
	// The byzantine and battery stages may replan (excision, re-admission,
	// evacuation); they run before dissemination so their diffs go out
	// this round.
	if s.byz != nil {
		if err := s.observeByzantine(cur, step); err != nil {
			return nil, err
		}
	}
	if s.evac != nil {
		if err := s.observeBattery(step); err != nil {
			return nil, err
		}
	}
	if err := s.disseminate(step); err != nil {
		return nil, err
	}
	s.finish(step)
	return step, nil
}

// rejoinRevived is the rejoin stage: nodes the schedule has revived rejoin
// before the round runs — graph surgery, spec re-admission, and an
// incremental replan whose diffs disseminate at the end of this step, so
// the rejoined region runs one fenced round before it contributes again.
func (s *ResilientSession) rejoinRevived(step *ResilientStep) error {
	if s.faults == nil {
		return nil
	}
	for _, n := range s.DeadNodes() {
		if s.faults.NodeDead(s.round, n) {
			continue
		}
		if b := s.cfg.Battery; b != nil && b.Depleted(n) {
			continue // exhaustion is terminal: a revived schedule cannot recharge it
		}
		if err := s.rejoin(n); err != nil {
			return err
		}
		step.Rejoins = append(step.Rejoins, n)
	}
	return nil
}

// run is the run stage: one round of the plan on the engine (or async
// runner) under the raw fault schedule — the engine itself fences lagging
// nodes and gates depleted ones — with its exact deliveries folded into
// the last-known values.
func (s *ResilientSession) run(cur map[NodeID]float64, step *ResilientStep) (*sim.LossyResult, error) {
	var res *sim.LossyResult
	if s.runner != nil {
		ar, err := s.runner.Run(s.round, cur, s.faults)
		if err != nil {
			return nil, err
		}
		res = &ar.LossyResult
		step.MakespanMS = ar.MakespanMS
		for _, rep := range res.Reports {
			if rep.DeadlineHit {
				step.DeadlineMisses++
			}
		}
	} else {
		var err error
		if res, err = s.engine.RunLossy(s.round, cur, s.faults, s.cfg.MaxRetries); err != nil {
			return nil, err
		}
	}
	step.EnergyJ = res.EnergyJ
	step.Reports = res.Reports
	step.EpochDropped = res.EpochDropped
	for d, rep := range res.Reports {
		switch {
		case rep.Fresh:
			step.Fresh++
			s.values[d] = res.Values[d]
		case rep.Starved:
			step.Starved++
		default:
			step.Stale++
		}
	}
	return res, nil
}

// contend is the contention stage: smooth the observed collision-loss
// fraction and, once it crosses the threshold, switch permanently to
// scheduled transmission — the frame goes out before the next round runs.
func (s *ResilientSession) contend(res *sim.LossyResult, step *ResilientStep) error {
	step.Collisions = res.Collisions
	if res.Transmissions > 0 {
		step.CollisionRate = float64(res.Collisions) / float64(res.Transmissions)
		s.collRate = 0.5*s.collRate + 0.5*step.CollisionRate
	}
	if !s.tdma && s.cfg.TDMASwitchThreshold > 0 && s.collRate >= s.cfg.TDMASwitchThreshold {
		if err := s.switchToTDMA(step); err != nil {
			return err
		}
	}
	step.TDMA = s.tdma
	return nil
}

// quarantine is the quarantine stage. It derives this round's quarantine
// from observed connectivity: an undirected edge for every delivered
// message (links that carried nothing cannot vouch for anything). A
// component severed from the base station whose nodes still transmitted
// is alive but unreachable — a partition, not a die-off — so the whole
// component is quarantined instead of being condemned node by node.
// Components that went silent stay on the normal condemnation path.
func (s *ResilientSession) quarantine(res *sim.LossyResult, step *ResilientStep) {
	quar := make(map[NodeID]bool)
	s.quarantined = quar
	if !slices.ContainsFunc(res.Outcomes, func(o sim.EdgeOutcome) bool { return !o.Delivered }) {
		return
	}
	base, err := s.lowestAlive(noNode)
	if err != nil {
		return
	}
	observed := graph.NewUndirected(s.net.Len())
	transmitted := make(map[NodeID]bool)
	for _, o := range res.Outcomes {
		if o.Attempts > 0 {
			transmitted[o.Edge.From] = true
		}
		if o.Delivered && !observed.HasEdge(o.Edge.From, o.Edge.To) {
			observed.AddEdge(o.Edge.From, o.Edge.To, 1)
		}
	}
	for _, comp := range observed.Components() {
		live := slices.ContainsFunc(comp, func(n NodeID) bool { return transmitted[n] })
		if !live || slices.Contains(comp, base) {
			continue
		}
		for _, n := range comp {
			if !s.dead[n] {
				quar[n] = true
			}
		}
	}
	step.Quarantined = len(quar)
}

// classify is the classification stage. A node is vindicated by any
// successful send or receipt; it is implicated by silence (dead senders
// are the only silent ones) or by exhausting the retry budget toward it
// when the detour also comes back empty. Quarantined nodes are exempt on
// both sides — the cut explains everything about them — and so are edges
// with an epoch-lagging endpoint, where the fence ate the frame. Only
// strictly consecutive misses count toward condemnation.
func (s *ResilientSession) classify(res *sim.LossyResult, step *ResilientStep) {
	implicated := make(map[NodeID]bool)
	vindicated := make(map[NodeID]bool)
	quar, lag := s.quarantined, s.pendingDiff
	for _, o := range res.Outcomes {
		switch {
		case o.Attempts == 0:
			if !quar[o.Edge.From] {
				implicated[o.Edge.From] = true
			}
		case o.Delivered:
			vindicated[o.Edge.From] = true
			vindicated[o.Edge.To] = true
			delete(s.detourRuns, o.Edge)
		default:
			// The sender kept transmitting, so it is alive; suspicion
			// falls on the link or the receiver.
			vindicated[o.Edge.From] = true
			if quar[o.Edge.From] || quar[o.Edge.To] || lag[o.Edge.From] || lag[o.Edge.To] {
				continue // explained failure: no detour spend, no implication
			}
			// Ride the link out with a milestone detour while the budget
			// lasts.
			if s.detourRuns[o.Edge] < s.cfg.DetourBudget {
				s.detourRuns[o.Edge]++
				if hops, derr := failure.DetourHops(s.net.Graph, o.Edge.From, o.Edge.To, o.Edge.From, o.Edge.To); derr == nil {
					step.Detours++
					detourJ := float64(hops) * s.net.Radio.UnicastJoules(o.BodyBytes)
					step.EnergyJ += detourJ
					step.DetourJ += detourJ
					if !s.nodeDown(s.round, o.Edge.To) {
						vindicated[o.Edge.To] = true // the detour got through: the receiver answered
						continue
					}
				}
			}
			implicated[o.Edge.To] = true
		}
	}
	for n := range s.misses {
		if vindicated[n] || !implicated[n] {
			delete(s.misses, n)
			delete(s.firstMiss, n)
		}
	}
	for n := range implicated {
		if s.dead[n] || vindicated[n] {
			continue
		}
		if s.misses[n] == 0 {
			s.firstMiss[n] = s.round
		}
		s.misses[n]++
	}
}

// condemn is the condemnation stage: a round in which every surviving
// destination is fresh closes out the pending recoveries, then every node
// implicated for MissThreshold consecutive rounds is declared dead and
// planned around, in ascending order.
func (s *ResilientSession) condemn(res *sim.LossyResult, step *ResilientStep) error {
	if len(s.pending) > 0 && !slices.ContainsFunc(s.inst.Dests(), func(d NodeID) bool {
		rep := res.Reports[d]
		return rep == nil || !rep.Fresh
	}) {
		for _, ev := range s.pending {
			ev.RecoverRounds = s.round - ev.Round
		}
		s.pending = nil
	}
	var condemned []NodeID
	for n, c := range s.misses {
		if c >= s.cfg.MissThreshold {
			condemned = append(condemned, n)
		}
	}
	slices.Sort(condemned)
	for _, n := range condemned {
		ev, err := s.recover(n)
		if err != nil {
			return err
		}
		step.Recoveries = append(step.Recoveries, ev)
	}
	return nil
}

// finish closes the step: battery telemetry reflecting everything the
// round debited (beacons and dissemination included), a copy of the
// last-known values, and the session's running totals.
func (s *ResilientSession) finish(step *ResilientStep) {
	if b := s.cfg.Battery; b != nil {
		for _, n := range b.DepletedNodes() {
			if b.DepletedAt(n) == s.round {
				step.Depleted = append(step.Depleted, n)
			}
		}
		step.MinResidualJ = b.MinResidualJ()
	}
	step.Values = maps.Clone(s.values)
	s.totalJ += step.EnergyJ
	s.round++
}

// recover plans around a node declared permanently dead: graph surgery,
// workload pruning, and a replan whose table diff is priced from the
// lowest survivor.
func (s *ResilientSession) recover(dead NodeID) (*RecoveryEvent, error) {
	g2, err := failure.RemoveNode(s.net.Graph, dead)
	if err != nil {
		return nil, err
	}
	pruned, _, err := failure.PruneSpecs(s.specs, dead)
	if err != nil {
		return nil, fmt.Errorf("m2m: cannot recover: %w", err)
	}
	base, err := s.lowestAlive(dead)
	if err != nil {
		return nil, err
	}
	cost, stats, dropped, err := s.replan(g2, pruned, s.prices, base)
	if err != nil {
		return nil, err
	}
	ev := &RecoveryEvent{
		Dead:          dead,
		Round:         s.round,
		DetectRounds:  s.round - s.firstMiss[dead] + 1,
		RecoverRounds: -1,
		ReplanJ:       cost.EnergyJ,
		ReplanBytes:   cost.Bytes,
		EdgesReused:   stats.EdgesReused,
		EdgesSolved:   stats.EdgesSolved,
		DroppedDests:  dropped,
	}
	s.dead[dead] = true
	delete(s.misses, dead)
	delete(s.firstMiss, dead)
	delete(s.pendingDiff, dead)
	delete(s.quarantined, dead)
	s.recoveries = append(s.recoveries, ev)
	s.pending = append(s.pending, ev)
	return ev, nil
}

// rejoin re-admits a revived node — the inverse of recover. Its original
// links to still-alive neighbors are restored from the pristine topology,
// the pristine workload is re-pruned by the remaining dead set (in
// ascending order, so the rebuilt specs match what successive recoveries
// would have produced), and the session replans incrementally under a new
// epoch whose diffs disseminate at the end of the step.
func (s *ResilientSession) rejoin(n NodeID) error {
	g2 := s.net.Graph.Clone()
	if err := failure.RestoreNode(g2, s.origGraph, n, func(m NodeID) bool { return m != n && s.dead[m] }); err != nil {
		return err
	}
	delete(s.dead, n)
	specs, err := s.rebuildSpecs()
	if err != nil {
		s.dead[n] = true
		return fmt.Errorf("m2m: cannot rejoin node %d: %w", n, err)
	}
	base, err := s.lowestAlive(noNode)
	if err == nil {
		_, _, _, err = s.replan(g2, specs, s.prices, base)
	}
	if err != nil {
		s.dead[n] = true
	}
	return err
}

// replan moves the session onto workload specs over graph g under the
// given node prices, as one transaction: route the new instance, re-solve
// only the edges whose inputs changed (Corollary 1), diff the tables and
// price the update from base, compile and bind the new program, then
// commit and bump the epoch so the changed nodes are owed their diffs.
// Nothing is committed unless every step succeeds. It returns the priced
// diff, the re-optimization stats, and the destinations that left the
// workload (their values are dropped).
func (s *ResilientSession) replan(g *graph.Undirected, specs []Spec, prices map[NodeID]int64, base NodeID) (*wire.DisseminationCost, *plan.UpdateStats, []NodeID, error) {
	inst, err := s.newInstance(g, specs)
	if err != nil {
		return nil, nil, nil, err
	}
	p, stats, err := plan.ReoptimizeWithPrices(s.plan, inst, prices)
	if err != nil {
		return nil, nil, nil, err
	}
	oldTab, err := s.currentTables()
	if err != nil {
		return nil, nil, nil, err
	}
	newTab, err := p.BuildTables()
	if err != nil {
		return nil, nil, nil, err
	}
	cost, err := wire.CostUpdate(s.inst, inst, oldTab, newTab, s.net.Radio, base)
	if err != nil {
		return nil, nil, nil, err
	}
	prog, err := CompileProgram(s.net, p)
	if err != nil {
		return nil, nil, nil, err
	}
	eng, runner, err := s.bind(prog, s.planEpoch+1)
	if err != nil {
		return nil, nil, nil, err
	}

	var dropped []NodeID
	for _, d := range s.inst.Dests() {
		if _, ok := inst.SpecByDest[d]; !ok {
			dropped = append(dropped, d)
			delete(s.values, d)
		}
	}
	s.net = &Network{Layout: s.net.Layout, Graph: g, Radio: s.net.Radio}
	s.specs = specs
	s.inst = inst
	s.plan = p
	s.engine = eng
	s.runner = runner
	s.prices = prices
	s.tables = newTab
	s.bumpEpoch(cost.Changed, base)
	return cost, stats, dropped, nil
}

// bind gives prog the session's runtime: the battery ledger, the epoch
// fence (the engine reads pendingDiff by reference each round), an async
// runner (async sessions only) that inherits the current runner's RTT
// estimators and last-known value caches — a replanned plan mostly reuses
// the same links, and stale destinations keep their age — and, once the
// session has switched to scheduled transmission, a TDMA frame of its own
// stamped with epoch. The frame rides the replan's already-priced table
// dissemination.
func (s *ResilientSession) bind(prog *Program, epoch uint32) (*sim.Engine, *sim.AsyncRunner, error) {
	eng := prog.Bind(s.cfg.Battery, nil)
	eng.SetFence(s.pendingDiff)
	var runner *sim.AsyncRunner
	if s.cfg.Async != nil {
		acfg := *s.cfg.Async
		if acfg.MaxRetries == 0 {
			acfg.MaxRetries = s.cfg.MaxRetries
		}
		var err error
		if runner, err = sim.NewAsyncRunner(eng, acfg); err != nil {
			return nil, nil, err
		}
		runner.InheritState(s.runner)
	}
	if s.tdma {
		if _, err := installTDMA(eng, epoch); err != nil {
			return nil, nil, err
		}
	}
	return eng, runner, nil
}

// beaconAttemptBase offsets the delivery-draw attempt numbers beacon hops
// consume, in a space disjoint from both the data plane's and the table
// disseminator's, so battery chatter cannot perturb either's loss draws
// (draws are pure in (round, edge, attempt)).
const beaconAttemptBase = 1 << 21

// observeBattery runs the base station's energy bookkeeping after a
// round: derive per-node burn rates from the ledger, collect low-battery
// beacons over the wire layer, forecast each beaconing node's
// time-to-death, and evacuate any whose forecast crossed the horizon.
func (s *ResilientSession) observeBattery(step *ResilientStep) error {
	b := s.cfg.Battery
	base, err := s.lowestAlive(noNode)
	if err != nil {
		return err
	}
	bfs := s.inst.Net.BFS(base)
	attempts := make(map[routing.Edge]int)
	var dying []NodeID
	for i := 0; i < s.net.Len(); i++ {
		n := NodeID(i)
		spent := b.SpentJ(n)
		delta := spent - s.evac.prevSpent[n]
		s.evac.prevSpent[n] = spent
		if s.dead[n] || b.Depleted(n) {
			delete(s.evac.burn, n)
			continue
		}
		// Smooth the burn estimate so one quiet or busy round does not
		// swing the forecast.
		if prev, ok := s.evac.burn[n]; ok {
			s.evac.burn[n] = 0.5*prev + 0.5*delta
		} else if delta > 0 {
			s.evac.burn[n] = delta
		}
		if n == base || s.evac.evacuated[n] || s.evac.burn[n] <= 0 {
			continue
		}
		if b.Residual(n)/b.CapacityJ(n) >= s.cfg.EvacuateThreshold {
			continue
		}
		// Below the threshold the node advertises its state toward the
		// base; the forecast uses what the wire actually carried
		// (fixed-point quantized), not the ledger's ground truth.
		bc, err := s.sendBeacon(bfs, n, attempts, step)
		if err != nil {
			return err
		}
		if bc == nil || bc.BurnJPerRound <= 0 {
			continue // beacon lost en route: try again next round
		}
		if bc.ResidualJ/bc.BurnJPerRound <= float64(s.cfg.EvacuateHorizonRounds) {
			dying = append(dying, bc.Node)
		}
	}
	if len(dying) == 0 {
		return nil
	}
	return s.evacuate(dying, step)
}

// sendBeacon carries node n's battery advertisement hop-by-hop toward the
// base station along the dissemination tree. Every hop is priced like any
// other traffic and debited from the ledger; beacons are best-effort
// (single attempt per hop, no ARQ), so a dead or browned-out relay, or a
// lost frame, returns nil — the node beacons again next round. On success
// it returns the beacon as the base station decoded it.
func (s *ResilientSession) sendBeacon(bfs *graph.PathTree, n NodeID, attempts map[routing.Edge]int, step *ResilientStep) (*wire.Beacon, error) {
	b := s.cfg.Battery
	frame, err := wire.EncodeBeacon(n, b.Residual(n), s.evac.burn[n])
	if err != nil {
		return nil, err
	}
	path := bfs.PathTo(n)
	if path == nil {
		return nil, nil // severed from the base: nothing to piggyback on
	}
	body := len(frame)
	txJ := s.net.Radio.TxJoules(body)
	rxJ := s.net.Radio.RxJoules(body)
	for h := len(path) - 1; h > 0; h-- {
		e := routing.Edge{From: path[h], To: path[h-1]}
		if s.nodeDown(s.round, e.From) || !b.Spend(s.round, e.From, txJ) {
			return nil, nil
		}
		step.EnergyJ += txJ
		seq := beaconAttemptBase + attempts[e]
		attempts[e]++
		if s.nodeDown(s.round, e.To) {
			return nil, nil
		}
		if s.faults != nil && !s.faults.Deliver(s.round, e, seq) {
			return nil, nil
		}
		if !b.Spend(s.round, e.To, rxJ) {
			return nil, nil // receiver browned out: frame unheard
		}
		step.EnergyJ += rxJ
	}
	bc, err := wire.DecodeBeacon(frame)
	if err != nil {
		return nil, err
	}
	return &bc, nil
}

// evacuate shifts traffic off relays forecast to die within the horizon,
// before they fail: routes are rebuilt on an energy-weighted copy of the
// topology whose edges into evacuating nodes carry EvacuatePenalty, every
// edge's vertex cover is re-posed with residual-scaled node prices, and
// the incremental plan disseminates under a new epoch exactly like a
// recovery replan — except nothing has failed yet.
func (s *ResilientSession) evacuate(dying []NodeID, step *ResilientStep) error {
	for _, n := range dying {
		s.evac.evacuated[n] = true
	}
	base, err := s.lowestAlive(noNode)
	if err != nil {
		return err
	}
	if _, _, _, err := s.replan(s.net.Graph, s.specs, s.energyPrices(), base); err != nil {
		return err
	}
	step.Evacuations += len(dying)
	return nil
}

// energyPrices derives the planner's per-node price map from the ledger:
// a healthy node keeps the implicit price 1, while a node below the
// beacon threshold (or already evacuated) climbs toward 5 as its residual
// fraction falls to zero, so cover solutions shed bytes from the dying
// first.
func (s *ResilientSession) energyPrices() map[NodeID]int64 {
	b := s.cfg.Battery
	prices := make(map[NodeID]int64)
	for i := 0; i < s.net.Len(); i++ {
		n := NodeID(i)
		if s.dead[n] {
			continue
		}
		frac := 0.0
		if !b.Depleted(n) {
			frac = b.Residual(n) / b.CapacityJ(n)
		}
		if frac >= s.cfg.EvacuateThreshold && !s.evac.evacuated[n] {
			continue
		}
		if p := 1 + int64(math.Round((1-frac)*4)); p > 1 {
			prices[n] = p
		}
	}
	return prices
}

// hotNodes returns the still-alive evacuated nodes — the ones route
// rebuilds must detour around.
func (s *ResilientSession) hotNodes() map[NodeID]bool {
	if s.evac == nil {
		return nil
	}
	hot := make(map[NodeID]bool, len(s.evac.evacuated))
	for n := range s.evac.evacuated {
		if !s.dead[n] {
			hot[n] = true
		}
	}
	return hot
}

// newInstance resolves routes for specs over g, honoring any evacuation
// in force: with no hot nodes it uses the session's configured router;
// otherwise it routes with weighted reverse-path trees over an
// energy-weighted copy of g that penalizes edges into hot nodes.
func (s *ResilientSession) newInstance(g *graph.Undirected, specs []Spec) (*Instance, error) {
	hot := s.hotNodes()
	if len(hot) == 0 {
		net2 := &Network{Layout: s.net.Layout, Graph: g, Radio: s.net.Radio}
		return net2.NewInstance(specs, s.kind)
	}
	wg, err := failure.EvacuationGraph(g, hot, s.cfg.EvacuatePenalty)
	if err != nil {
		return nil, err
	}
	return plan.NewInstance(wg, routing.NewWeightedReversePath(wg), specs)
}

// bumpEpoch advances the plan epoch after a replan and marks every alive
// node whose table blob changed as owed a diff. The base installs its own
// tables for free and is never marked.
func (s *ResilientSession) bumpEpoch(changed []NodeID, base NodeID) {
	s.planEpoch++
	for _, n := range changed {
		if !s.dead[n] && n != base {
			s.pendingDiff[n] = true
		}
	}
}

// disseminate is the dissemination stage: it pushes the current epoch's
// owed table diffs from the base station over the lossy channel —
// epoch-stamped frames, hop-by-hop retries, priced like any other
// traffic. Updated nodes leave the fence; whatever fails, typically a
// quarantined region, stays pending for the next round.
func (s *ResilientSession) disseminate(step *ResilientStep) error {
	if len(s.pendingDiff) == 0 {
		return nil
	}
	base, err := s.lowestAlive(noNode)
	if err != nil {
		return err
	}
	tab, err := s.currentTables()
	if err != nil {
		return err
	}
	var sched wire.Schedule
	if s.faults != nil || s.cfg.Battery != nil {
		sched = liveSchedule{s}
	}
	dres, err := wire.DisseminateTables(s.inst, tab, s.net.Radio, base, sortedIDs(s.pendingDiff), s.planEpoch, sched, s.round, s.cfg.MaxRetries)
	if err != nil {
		return err
	}
	step.EnergyJ += dres.EnergyJ
	if b := s.cfg.Battery; b != nil {
		// Control traffic drains radios too. Each node's debit is a single
		// aggregated amount, so map order cannot change the outcome.
		for n, j := range dres.PerNodeJ {
			b.Spend(s.round, n, j)
		}
	}
	for _, n := range dres.Updated {
		delete(s.pendingDiff, n)
	}
	step.EpochLag = len(s.pendingDiff)
	return nil
}

// liveSchedule is the fault schedule table dissemination walks: dead means
// crashed or battery-exhausted (nodeDown).
type liveSchedule struct{ s *ResilientSession }

func (l liveSchedule) NodeDead(round int, n NodeID) bool { return l.s.nodeDown(round, n) }
func (l liveSchedule) Deliver(round int, e routing.Edge, attempt int) bool {
	return l.s.faults == nil || l.s.faults.Deliver(round, e, attempt)
}

// installTDMA equips eng with a TDMA frame derived from its own message
// layout, round-tripped through the wire codec exactly as a mote would
// receive it off the air — so LoadFrame validates what was actually
// transmitted, not the in-memory schedule. Returns the encoded frame.
func installTDMA(eng *sim.Engine, epoch uint32) ([]byte, error) {
	sched, _, err := eng.BuildSchedule()
	if err != nil {
		return nil, err
	}
	frame, err := wire.EncodeTDMA(epoch, sched.SlotOf)
	if err != nil {
		return nil, err
	}
	dec, err := wire.DecodeTDMA(frame)
	if err != nil {
		return nil, err
	}
	if err := eng.LoadFrame(dec.SlotOf); err != nil {
		return nil, err
	}
	return frame, nil
}

// switchToTDMA performs the one-time move to scheduled transmission:
// build and install the frame, then flood it from the base station down
// the dissemination tree — one unicast per alive reachable node, priced
// and debited like any other control traffic. The flood is one-shot (no
// per-hop ARQ is modeled for it); the frame is in force from the next
// round. Replans after the switch derive fresh frames that ride the
// already-priced table dissemination instead.
func (s *ResilientSession) switchToTDMA(step *ResilientStep) error {
	frame, err := installTDMA(s.engine, s.planEpoch)
	if err != nil {
		return err
	}
	base, err := s.lowestAlive(noNode)
	if err != nil {
		return err
	}
	bfs := s.inst.Net.BFS(base)
	body := len(frame)
	for i := 0; i < s.net.Len(); i++ {
		n := NodeID(i)
		if n == base || s.dead[n] || !bfs.Reachable(n) {
			continue
		}
		step.EnergyJ += s.net.Radio.UnicastJoules(body)
		if b := s.cfg.Battery; b != nil {
			b.Spend(s.round, bfs.Parent[n], s.net.Radio.TxJoules(body))
			b.Spend(s.round, n, s.net.Radio.RxJoules(body))
		}
	}
	s.tdma = true
	return nil
}

// currentTables lazily builds and caches the executing plan's tables.
func (s *ResilientSession) currentTables() (*Tables, error) {
	if s.tables == nil {
		t, err := s.plan.BuildTables()
		if err != nil {
			return nil, err
		}
		s.tables = t
	}
	return s.tables, nil
}

// noNode is the sentinel lowestAlive callers pass when no node is dying.
const noNode = NodeID(-1)

// lowestAlive picks the dissemination base station: the lowest-numbered
// node not known to be dead (and not being condemned right now). A
// battery-exhausted node cannot serve either. It errors when nobody
// survives rather than silently electing dead node 0.
func (s *ResilientSession) lowestAlive(dying NodeID) (NodeID, error) {
	b := s.cfg.Battery
	for i := 0; i < s.net.Len(); i++ {
		n := NodeID(i)
		if s.dead[n] || n == dying {
			continue
		}
		if b != nil && b.Depleted(n) {
			continue
		}
		return n, nil
	}
	return 0, fmt.Errorf("m2m: no surviving node to act as base station")
}

// Rounds returns how many rounds have executed.
func (s *ResilientSession) Rounds() int { return s.round }

// TotalEnergyJ returns the session's accumulated radio energy, including
// retries, detours, and replan dissemination.
func (s *ResilientSession) TotalEnergyJ() float64 { return s.totalJ }

// Recoveries returns every permanent-failure recovery so far, in order.
func (s *ResilientSession) Recoveries() []*RecoveryEvent {
	return append([]*RecoveryEvent(nil), s.recoveries...)
}

// DeadNodes returns the nodes declared permanently failed, ascending.
func (s *ResilientSession) DeadNodes() []NodeID { return sortedIDs(s.dead) }

// Workload returns the current (possibly pruned) workload.
func (s *ResilientSession) Workload() []Spec {
	return append([]Spec(nil), s.specs...)
}

// CurrentPlan returns the plan the session is executing right now.
func (s *ResilientSession) CurrentPlan() *Plan { return s.plan }

// PlanEpoch returns the epoch of the plan the session is executing; it
// starts at 1 and bumps on every replan: recovery, rejoin, evacuation,
// excision and re-admission.
func (s *ResilientSession) PlanEpoch() uint32 { return s.planEpoch }

// TDMAActive reports whether the session has switched to scheduled
// (TDMA) transmission.
func (s *ResilientSession) TDMAActive() bool { return s.tdma }

// CollisionRate returns the smoothed collision-loss fraction the switch
// decision tracks (zero unless the fault schedule enables collisions).
func (s *ResilientSession) CollisionRate() float64 { return s.collRate }

// QuarantinedNodes returns the nodes held in quarantine after the last
// round, ascending: alive but severed from the base station, so exempt
// from condemnation until the cut heals.
func (s *ResilientSession) QuarantinedNodes() []NodeID { return sortedIDs(s.quarantined) }

// EvacuatedNodes returns the nodes the session has proactively evacuated
// so far, ascending (including any that later died anyway).
func (s *ResilientSession) EvacuatedNodes() []NodeID {
	if s.evac == nil {
		return []NodeID{}
	}
	return sortedIDs(s.evac.evacuated)
}

// EnergyPrices returns a copy of the per-node energy prices the planner
// is currently solving under, or nil before the first evacuation.
func (s *ResilientSession) EnergyPrices() map[NodeID]int64 {
	if s.prices == nil {
		return nil
	}
	out := make(map[NodeID]int64, len(s.prices))
	for n, p := range s.prices {
		out[n] = p
	}
	return out
}

// EpochLaggingNodes returns the alive nodes still owed the current plan
// epoch's tables, ascending; every edge they touch is fenced until their
// diff lands.
func (s *ResilientSession) EpochLaggingNodes() []NodeID { return sortedIDs(s.pendingDiff) }

// sortedIDs returns the members of a node set, ascending.
func sortedIDs(m map[NodeID]bool) []NodeID {
	out := make([]NodeID, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}
