// Package sim executes many-to-many aggregation plans over a simulated
// Mica2-class network: it materializes the plan's message units, derives
// their wait-for dependencies (acyclic per Theorem 2), merges units into
// per-edge messages (Section 3), computes every destination's aggregate
// value exactly, and accounts send/receive energy under the radio model.
// It also implements the paper's flood baseline and the temporal
// suppression + override execution mode of Section 3.
package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/schedule"
)

// nodeSource keys per-node availability of a source's raw value.
type nodeSource struct {
	node, source graph.NodeID
}

// nodeDest keys per-node accumulated partial records for a destination.
type nodeDest struct {
	node, dest graph.NodeID
}

// Program is the immutable compiled form of one plan under one radio
// model and one set of construction options: the unit list, the wait-for
// DAG, a topological processing order, the message layout and its static
// energy, and the flat, index-based round program (compile.go) that
// repeated rounds execute over dense scratch arrays. Nothing in a Program
// changes after Compile except two lazily built, sync.Once-guarded views
// (the async message DAG and the collision conflict graph) and the scratch
// pools, so one Program may back any number of engines — and any number of
// concurrent rounds — at once.
type Program struct {
	Plan  *plan.Plan
	Radio radio.Model

	units    []plan.Unit
	deps     [][]int // deps[u] = units u waits for
	order    []int   // topological processing order
	provUnit []bool  // unit is the designated first provider of its raw value

	messages  [][]int // message -> unit indices (per edge)
	energyJ   float64
	bodyBytes int
	perNodeJ  map[graph.NodeID]float64

	prog      *compiled // the flat round program (compile.go)
	pool      sync.Pool // *RoundState scratch, recycled across rounds
	lossyPool sync.Pool // *lossyState scratch for the lossy/async paths

	topo     *asyncTopo // message-level DAG for the async executor
	topoOnce sync.Once  // guards the lazy build so concurrent rounds stay safe

	cont     *contention // message conflict topology for the collision model
	contOnce sync.Once   // guards its lazy build
	contErr  error
}

// Engine executes one plan: a shared, immutable Program plus the small
// runtime one session owns — its battery ledger, its adversary, the
// fault-free round counters both consult, its transmission discipline and
// TDMA frame, and its epoch fence. Engines bound to the same Program never
// observe each other: everything they write lives here or in per-round
// scratch.
type Engine struct {
	*Program

	battery  *Battery     // optional residual-energy ledger (Options.Battery)
	batRound atomic.Int64 // rounds drained on the fault-free paths

	adversary Adversary    // optional corruption schedule (Options.Adversary)
	advRound  atomic.Int64 // fault-free rounds the adversary has seen

	txMode  TxMode             // transmission discipline under collisions
	txSched *schedule.Schedule // installed TDMA frame (TxTDMA)

	lagging map[graph.NodeID]bool // epoch fence (SetFence); read, never written
}

// SetFence installs the epoch fence of the lossy and async executors:
// lagging holds the nodes still running an older plan epoch's tables. A
// frame crossing an edge with a lagging endpoint is transmitted and heard
// — both radios pay — but the receiver discards it instead of merging
// (counted in EpochDropped), so a node on a stale plan degrades coverage
// rather than corrupting aggregates. The engine keeps the set by
// reference and reads it at the start of every round, so its owner may
// update it between rounds; nil or empty fences nothing.
func (e *Engine) SetFence(lagging map[graph.NodeID]bool) { e.lagging = lagging }

// Options configures engine construction.
type Options struct {
	// MergeMessages enables combining an edge's units into single messages
	// (the paper's default). When false every unit travels alone,
	// reproducing the "straightforward, though suboptimal" scheduling of
	// Section 3.
	MergeMessages bool
	// EdgeHops maps a plan edge to the number of physical hops it spans.
	// Plans over milestone (virtual) edges set this from the contraction's
	// HopPaths; nil means every edge is a single physical hop. A message on
	// a k-hop virtual edge is relayed k times, paying k unicasts.
	EdgeHops func(routing.Edge) int
	// Broadcast prices each node's outgoing traffic as one local broadcast
	// with selective listening (the optimization of the paper's footnote
	// 1): the union of the node's outgoing units — raw values deduplicated
	// across out-edges — is sent once, and exactly the intended neighbors
	// listen. Incompatible with EdgeHops.
	Broadcast bool
	// LinkLoss maps a plan edge to its packet loss probability in [0, 1);
	// messages on lossy links pay the stop-and-wait ARQ expectation
	// 1/(1-p) transmissions. Nil means lossless links. Incompatible with
	// Broadcast (no per-link ACKs on a broadcast medium).
	LinkLoss func(routing.Edge) float64
	// Battery, when non-nil, is the residual-energy ledger every executor
	// debits. The fault-free executors drain each node's static per-round
	// share wholesale after the round; the lossy and async executors debit
	// the actual per-attempt spend and silence nodes whose batteries hit
	// zero mid-round (see RunLossy/RunAsync). The ledger may be shared
	// across engines (e.g. across a session's replans).
	Battery *Battery
	// Adversary, when non-nil, corrupts source readings at the
	// pre-aggregation boundary of every executor (see the Adversary
	// interface). The fault-free executors number rounds with an internal
	// counter; the lossy and async executors use their explicit round
	// argument and prefer an adversary asserted from their fault schedule.
	Adversary Adversary
}

// NewEngine prepares an executor for p: Compile followed by Bind. It
// fails if the plan's wait-for graph is cyclic (impossible for valid
// plans, per Theorem 2).
func NewEngine(p *plan.Plan, model radio.Model, opts Options) (*Engine, error) {
	prog, err := Compile(p, model, opts)
	if err != nil {
		return nil, err
	}
	return prog.Bind(opts.Battery, opts.Adversary), nil
}

// Bind returns a fresh engine executing the program with its own runtime:
// the given battery ledger and adversary (either may be nil), zeroed round
// counters, and the unscheduled transmission discipline.
func (p *Program) Bind(battery *Battery, adversary Adversary) *Engine {
	return &Engine{Program: p, battery: battery, adversary: adversary}
}

// Compile derives the immutable round program for pl under model and the
// construction fields of opts (MergeMessages, EdgeHops, Broadcast,
// LinkLoss); the runtime fields Battery and Adversary are ignored here and
// supplied per engine by Bind. It fails if the plan's wait-for graph is
// cyclic (impossible for valid plans, per Theorem 2).
func Compile(pl *plan.Plan, model radio.Model, opts Options) (*Program, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	p := &Program{Plan: pl, Radio: model}
	p.units = pl.Units()
	provider := p.buildProviders()
	if err := p.buildDeps(provider); err != nil {
		return nil, err
	}
	p.provUnit = make([]bool, len(p.units))
	for i, u := range p.units {
		if u.Kind != plan.UnitRaw {
			continue
		}
		if prov, ok := provider[nodeSource{node: u.Edge.To, source: u.Node}]; ok && prov == u.Edge {
			p.provUnit[i] = true
		}
	}
	d := graph.NewDigraph(len(p.units))
	for u, ds := range p.deps {
		for _, dep := range ds {
			d.AddArc(dep, u)
		}
	}
	order, ok := d.TopoSort()
	if !ok {
		return nil, fmt.Errorf("sim: wait-for cycle among message units (Theorem 2 violated)")
	}
	p.order = order
	p.buildMessages(opts.MergeMessages)
	if err := p.orderMessages(); err != nil {
		return nil, err
	}
	if opts.Broadcast {
		if opts.EdgeHops != nil {
			return nil, fmt.Errorf("sim: Broadcast and EdgeHops are incompatible")
		}
		if opts.LinkLoss != nil {
			return nil, fmt.Errorf("sim: Broadcast and LinkLoss are incompatible")
		}
		p.accountBroadcastEnergy()
	} else {
		if err := p.accountEnergy(opts.EdgeHops, opts.LinkLoss); err != nil {
			return nil, err
		}
	}
	if err := p.compile(); err != nil {
		return nil, err
	}
	p.pool.New = func() any { return p.NewRoundState() }
	p.lossyPool.New = func() any { return p.newLossyState() }
	return p, nil
}

// buildProviders picks, for every (node, source) with the source's raw
// value available, the deterministic in-edge that delivers it first. The
// map only lives through construction: per-unit facts derived from it
// (deps, provUnit) are stored as slices indexed by unit.
func (p *Program) buildProviders() map[nodeSource]routing.Edge {
	provider := make(map[nodeSource]routing.Edge)
	edgesBySource := make(map[graph.NodeID][]routing.Edge)
	for _, eg := range p.Plan.Inst.EdgeList {
		for s := range p.Plan.Sol[eg].Raw {
			edgesBySource[s] = append(edgesBySource[s], eg)
		}
	}
	var sources []graph.NodeID
	for s := range edgesBySource {
		sources = append(sources, s)
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	for _, s := range sources {
		edges := edgesBySource[s] // already deterministic (EdgeList order)
		avail := map[graph.NodeID]bool{s: true}
		for changed := true; changed; {
			changed = false
			for _, eg := range edges {
				if avail[eg.From] && !avail[eg.To] {
					avail[eg.To] = true
					provider[nodeSource{node: eg.To, source: s}] = eg
					changed = true
				}
			}
		}
	}
	return provider
}

// buildDeps derives each unit's wait-for set (Section 3): a forwarded raw
// value waits for the copy that delivered it; a partial record waits for
// the upstream records and raw values it merges.
func (p *Program) buildDeps(provider map[nodeSource]routing.Edge) error {
	unitIdx := make(map[plan.Unit]int, len(p.units))
	for i, u := range p.units {
		unitIdx[u] = i
	}
	p.deps = make([][]int, len(p.units))
	for i, u := range p.units {
		seen := make(map[int]bool)
		add := func(dep plan.Unit) error {
			j, ok := unitIdx[dep]
			if !ok {
				return fmt.Errorf("sim: unit %v depends on missing unit %v", u, dep)
			}
			if !seen[j] {
				seen[j] = true
				p.deps[i] = append(p.deps[i], j)
			}
			return nil
		}
		switch u.Kind {
		case plan.UnitRaw:
			if u.Edge.From == u.Node {
				continue // originates here
			}
			prov, ok := provider[nodeSource{node: u.Edge.From, source: u.Node}]
			if !ok {
				return fmt.Errorf("sim: raw %d unavailable at %d", u.Node, u.Edge.From)
			}
			if err := add(plan.Unit{Edge: prov, Kind: plan.UnitRaw, Node: u.Node}); err != nil {
				return err
			}
		case plan.UnitAgg:
			n := u.Edge.From
			for _, pr := range p.Plan.Inst.EdgePairs[u.Edge] {
				if pr.Dest != u.Node {
					continue
				}
				pos := p.Plan.Inst.PairEdgeIndex(pr, u.Edge)
				if pos == 0 {
					continue // the source is n itself: local reading
				}
				path := p.Plan.Inst.Paths[pr]
				in := routing.Edge{From: path[pos-1], To: path[pos]}
				if p.Plan.Sol[in].Agg[u.Node] {
					if err := add(plan.Unit{Edge: in, Kind: plan.UnitAgg, Node: u.Node}); err != nil {
						return err
					}
				} else {
					prov, ok := provider[nodeSource{node: n, source: pr.Source}]
					if !ok {
						return fmt.Errorf("sim: raw %d unavailable at %d for record %d", pr.Source, n, u.Node)
					}
					if err := add(plan.Unit{Edge: prov, Kind: plan.UnitRaw, Node: pr.Source}); err != nil {
						return err
					}
				}
			}
		}
		sort.Ints(p.deps[i])
	}
	return nil
}

// RoundResult reports one executed round.
type RoundResult struct {
	// Values holds every destination's exactly computed aggregate.
	Values map[graph.NodeID]float64
	// EnergyJ is the total radio energy (sender TX + receiver RX) of the
	// round in joules.
	EnergyJ float64
	// Messages is the number of physical messages sent.
	Messages int
	// Units is the number of message units carried.
	Units int
	// BodyBytes is the total unit payload (excluding headers).
	BodyBytes int
	// OnAirBytes includes per-message headers.
	OnAirBytes int
	// PerNodeJ is each node's share of the round energy (TX at senders,
	// RX at receivers) — the basis of the paper's bottleneck argument for
	// in-network control. Treat as read-only.
	PerNodeJ map[graph.NodeID]float64
}

// Observer receives every message unit as the round produces it: raw
// units come with their value, record units with their partial aggregate.
// Used for execution tracing (cmd/m2msim -trace).
type Observer func(u plan.Unit, raw float64, rec agg.Record)

// Run executes one round with the given readings (one per node; sources
// not present default to 0) and returns the computed destination values
// plus the round's communication cost. It executes the compiled round
// program over a pooled RoundState: beyond the returned result and its
// Values map, a steady-state round performs no heap allocations.
func (e *Engine) Run(readings map[graph.NodeID]float64) (*RoundResult, error) {
	st := e.getState()
	defer e.putState(st)
	res := &RoundResult{Values: make(map[graph.NodeID]float64, len(e.prog.finals))}
	e.runCompiled(e.nextAdvRound(), readings, st, res.Values, nil)
	e.fillResult(res)
	e.drainStatic()
	return res, nil
}

// drainStatic debits the static per-round spend from the battery ledger
// after a fault-free round. The fault-free executors cannot model a node
// falling silent mid-round (no frame there can be lost), so exhaustion is
// applied at the round boundary; exhaustion *failures* — silenced
// senders, unheard receivers — only manifest on the lossy and async
// paths. No-op without a ledger; allocation-free with one.
func (e *Engine) drainStatic() {
	if e.battery == nil {
		return
	}
	round := int(e.batRound.Add(1)) - 1
	e.battery.DrainPerRound(round, e.perNodeJ)
}

// RunObserved is Run with a unit-level observer (nil behaves like Run).
// Observed records are cloned before the observer sees them, so observers
// may retain them.
func (e *Engine) RunObserved(readings map[graph.NodeID]float64, obs Observer) (*RoundResult, error) {
	if obs == nil {
		return e.Run(readings)
	}
	st := e.getState()
	defer e.putState(st)
	res := &RoundResult{Values: make(map[graph.NodeID]float64, len(e.prog.finals))}
	e.runCompiled(e.nextAdvRound(), readings, st, res.Values, obs)
	e.fillResult(res)
	e.drainStatic()
	return res, nil
}

// PerNodeEnergy returns each node's precomputed share of one full round's
// energy under the engine's options. The map is owned by the engine; treat
// it as read-only. It is reading-independent, so lifetime estimates can
// use it without executing a round.
func (p *Program) PerNodeEnergy() map[graph.NodeID]float64 { return p.perNodeJ }

// accountEnergy prices the message layout: each message is one unicast of
// header + its units' payloads per physical hop of its edge, inflated by
// the ARQ expectation on lossy links. Per-node attribution charges TX to
// the edge tail and RX to the head; for multi-hop virtual edges the
// relaying between milestones is split evenly between the endpoints (the
// intermediate relays are chosen by the communication layer at runtime
// and unknown to the plan).
func (p *Program) accountEnergy(edgeHops func(routing.Edge) int, linkLoss func(routing.Edge) float64) error {
	p.energyJ = 0
	p.bodyBytes = 0
	p.perNodeJ = make(map[graph.NodeID]float64)
	for _, msg := range p.messages {
		body := 0
		for _, ui := range msg {
			body += p.Plan.Bytes(p.units[ui])
		}
		edge := p.units[msg[0]].Edge
		hops := 1
		if edgeHops != nil {
			if h := edgeHops(edge); h > 0 {
				hops = h
			}
		}
		arq := 1.0
		if linkLoss != nil {
			f, err := radio.ARQFactor(linkLoss(edge))
			if err != nil {
				return fmt.Errorf("sim: edge %v: %w", edge, err)
			}
			arq = f
		}
		p.bodyBytes += body
		total := arq * float64(hops) * p.Radio.UnicastJoules(body)
		p.energyJ += total
		if hops == 1 {
			p.perNodeJ[edge.From] += arq * p.Radio.TxJoules(body)
			p.perNodeJ[edge.To] += arq * p.Radio.RxJoules(body)
		} else {
			p.perNodeJ[edge.From] += total / 2
			p.perNodeJ[edge.To] += total / 2
		}
	}
	return nil
}
