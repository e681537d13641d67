package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"m2m"
	"m2m/internal/chaos"
	"m2m/internal/readings"
)

// Hard structural caps the decoders enforce on any request, independent
// of the server's configured (and typically tighter) limits: a payload
// outside these bounds is malformed, not merely expensive.
const (
	maxNodesHard    = 100_000
	maxRoundsHard   = 100_000
	maxSweepSeeds   = 1_000_000
	maxVariantsHard = 256
	maxSpecBytes    = 1 << 20
)

// TopologySpec names a deterministic network: the paper's evaluation
// layout or one of the synthetic generators, all reproducible from their
// parameters alone — which is what makes plan caching and checkpoint
// replay sound.
type TopologySpec struct {
	// Kind is one of "gdi", "random", "clustered", "grid".
	Kind string `json:"kind"`
	// Nodes sizes the random and clustered generators.
	Nodes int `json:"nodes,omitempty"`
	// Seed seeds the random and clustered generators.
	Seed int64 `json:"seed,omitempty"`
	// NX, NY, and Spacing shape the grid generator.
	NX      int     `json:"nx,omitempty"`
	NY      int     `json:"ny,omitempty"`
	Spacing float64 `json:"spacing,omitempty"`
}

func (t *TopologySpec) validate() error {
	switch t.Kind {
	case "gdi":
		if t.Nodes != 0 || t.NX != 0 || t.NY != 0 {
			return fmt.Errorf("serve: gdi topology takes no size parameters")
		}
	case "random", "clustered":
		if t.Nodes < 2 || t.Nodes > maxNodesHard {
			return fmt.Errorf("serve: topology nodes %d outside [2,%d]", t.Nodes, maxNodesHard)
		}
		if t.NX != 0 || t.NY != 0 || t.Spacing != 0 {
			return fmt.Errorf("serve: %s topology takes nodes/seed only", t.Kind)
		}
	case "grid":
		if t.NX < 1 || t.NY < 1 || t.NX*t.NY < 2 || t.NX > maxNodesHard || t.NY > maxNodesHard || t.NX*t.NY > maxNodesHard {
			return fmt.Errorf("serve: grid %dx%d outside [2,%d] nodes", t.NX, t.NY, maxNodesHard)
		}
		if !(t.Spacing > 0) || math.IsInf(t.Spacing, 0) {
			return fmt.Errorf("serve: grid spacing %v must be a positive finite number", t.Spacing)
		}
		if t.Nodes != 0 || t.Seed != 0 {
			return fmt.Errorf("serve: grid topology takes nx/ny/spacing only")
		}
	default:
		return fmt.Errorf("serve: unknown topology kind %q", t.Kind)
	}
	return nil
}

// size returns the node count the spec will build, without building it.
func (t *TopologySpec) size() int {
	switch t.Kind {
	case "gdi":
		return 68
	case "grid":
		return t.NX * t.NY
	default:
		return t.Nodes
	}
}

// build materializes the network. Deterministic: equal specs build equal
// networks.
func (t *TopologySpec) build() (*m2m.Network, error) {
	switch t.Kind {
	case "gdi":
		return m2m.GreatDuckIsland(), nil
	case "random":
		return m2m.RandomNetwork(t.Nodes, t.Seed), nil
	case "clustered":
		return m2m.ClusteredNetwork(t.Nodes, t.Seed), nil
	case "grid":
		return m2m.GridNetwork(t.NX, t.NY, t.Spacing), nil
	}
	return nil, fmt.Errorf("serve: unknown topology kind %q", t.Kind)
}

func (t *TopologySpec) canon() string {
	return fmt.Sprintf("topo:%s,n=%d,seed=%d,nx=%d,ny=%d,sp=%g",
		t.Kind, t.Nodes, t.Seed, t.NX, t.NY, t.Spacing)
}

// GenerateSpec draws a random workload over the topology (the paper's
// evaluation workload generator), deterministic in its parameters.
type GenerateSpec struct {
	DestFraction   float64 `json:"destFraction"`
	SourcesPerDest int     `json:"sourcesPerDest"`
	Dispersion     float64 `json:"dispersion"`
	MaxHops        int     `json:"maxHops,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
}

// WorkloadSpec supplies the aggregation workload: either verbatim
// specfile text (the `<dest> = <kind>(<src>, ...)` grammar) or generator
// parameters. Exactly one must be set.
type WorkloadSpec struct {
	Specs    string        `json:"specs,omitempty"`
	Generate *GenerateSpec `json:"generate,omitempty"`
}

func (w *WorkloadSpec) validate() error {
	switch {
	case w.Specs != "" && w.Generate != nil:
		return fmt.Errorf("serve: workload sets both specs text and generate parameters")
	case w.Specs != "":
		if len(w.Specs) > maxSpecBytes {
			return fmt.Errorf("serve: workload specs text exceeds %d bytes", maxSpecBytes)
		}
		// Parse now so malformed workloads fail at decode time with the
		// grammar's own diagnostic, not deep inside session construction.
		if _, err := m2m.ParseWorkload(strings.NewReader(w.Specs)); err != nil {
			return err
		}
	case w.Generate != nil:
		g := w.Generate
		if !(g.DestFraction > 0) || g.DestFraction > 1 || math.IsNaN(g.DestFraction) {
			return fmt.Errorf("serve: destFraction %v outside (0,1]", g.DestFraction)
		}
		if g.SourcesPerDest < 1 || g.SourcesPerDest > 1000 {
			return fmt.Errorf("serve: sourcesPerDest %d outside [1,1000]", g.SourcesPerDest)
		}
		if g.Dispersion < 0 || g.Dispersion > 1 || math.IsNaN(g.Dispersion) {
			return fmt.Errorf("serve: dispersion %v outside [0,1]", g.Dispersion)
		}
		if g.MaxHops < 0 {
			return fmt.Errorf("serve: negative maxHops %d", g.MaxHops)
		}
	default:
		return fmt.Errorf("serve: workload needs specs text or generate parameters")
	}
	return nil
}

// canon returns the workload's cache-key fragment. Specfile text is
// normalized through a parse/format round trip so formatting differences
// (whitespace, ordering inside a line) cannot split the plan cache.
func (w *WorkloadSpec) canon() (string, error) {
	if w.Generate != nil {
		g := w.Generate
		return fmt.Sprintf("gen:df=%g,spd=%d,disp=%g,hops=%d,seed=%d",
			g.DestFraction, g.SourcesPerDest, g.Dispersion, g.MaxHops, g.Seed), nil
	}
	specs, err := m2m.ParseWorkload(strings.NewReader(w.Specs))
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	if err := m2m.FormatWorkload(&b, specs); err != nil {
		return "", err
	}
	return "specs:" + b.String(), nil
}

// resolve materializes the workload over the built network.
func (w *WorkloadSpec) resolve(net *m2m.Network) ([]m2m.Spec, error) {
	if w.Generate != nil {
		g := w.Generate
		return net.GenerateWorkload(m2m.WorkloadConfig{
			DestFraction:   g.DestFraction,
			SourcesPerDest: g.SourcesPerDest,
			Dispersion:     g.Dispersion,
			MaxHops:        g.MaxHops,
			Seed:           g.Seed,
		})
	}
	return m2m.ParseWorkload(strings.NewReader(w.Specs))
}

// ReadingsSpec selects the per-round reading stream. Every kind is
// deterministic in its parameters, so checkpointed sessions replay to
// byte-identical state.
type ReadingsSpec struct {
	// Kind is one of "constant", "walk", "diurnal", "pulse".
	Kind string `json:"kind"`
	Seed int64  `json:"seed,omitempty"`
	// Value is the constant generator's level (default 20).
	Value float64 `json:"value,omitempty"`
	// Start and Step shape the random walk (defaults 20 and 0.5).
	Start float64 `json:"start,omitempty"`
	Step  float64 `json:"step,omitempty"`
	// Period, Base, Amp, and Noise shape the diurnal cycle.
	Period int     `json:"period,omitempty"`
	Base   float64 `json:"base,omitempty"`
	Amp    float64 `json:"amp,omitempty"`
	Noise  float64 `json:"noise,omitempty"`
	// Prob and Magnitude shape the pulse change model.
	Prob      float64 `json:"prob,omitempty"`
	Magnitude float64 `json:"magnitude,omitempty"`
}

func (r *ReadingsSpec) validate() error {
	if r == nil {
		return nil
	}
	finite := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("serve: readings %s %v is not finite", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"value", r.Value}, {"start", r.Start}, {"step", r.Step}, {"base", r.Base},
		{"amp", r.Amp}, {"noise", r.Noise}, {"magnitude", r.Magnitude}} {
		if err := finite(f.name, f.v); err != nil {
			return err
		}
	}
	switch r.Kind {
	case "constant", "walk", "diurnal", "pulse":
	default:
		return fmt.Errorf("serve: unknown readings kind %q", r.Kind)
	}
	if r.Period < 0 {
		return fmt.Errorf("serve: negative readings period %d", r.Period)
	}
	if r.Prob < 0 || r.Prob > 1 || math.IsNaN(r.Prob) {
		return fmt.Errorf("serve: readings prob %v outside [0,1]", r.Prob)
	}
	return nil
}

// build constructs the generator for an n-node network. A nil spec means
// the default: constant 20-degree readings everywhere.
func (r *ReadingsSpec) build(n int) m2m.ReadingGenerator {
	if r == nil {
		return readings.NewConstant(n, 20)
	}
	switch r.Kind {
	case "walk":
		start, step := r.Start, r.Step
		if start == 0 {
			start = 20
		}
		if step == 0 {
			step = 0.5
		}
		return readings.NewRandomWalk(n, r.Seed, start, step)
	case "diurnal":
		period, base, amp, noise := r.Period, r.Base, r.Amp, r.Noise
		if period == 0 {
			period = 48
		}
		if base == 0 {
			base = 20
		}
		if amp == 0 {
			amp = 5
		}
		return readings.NewDiurnal(n, r.Seed, period, base, amp, noise)
	case "pulse":
		prob, mag := r.Prob, r.Magnitude
		if prob == 0 {
			prob = 0.05
		}
		if mag == 0 {
			mag = 10
		}
		return readings.NewPulse(n, r.Seed, prob, mag)
	default: // "constant"
		v := r.Value
		if v == 0 {
			v = 20
		}
		return readings.NewConstant(n, v)
	}
}

// FaultsSpec arms a deterministic fault injector for the session: seeded
// per-link loss and an optional permanent crash, range-checked as the
// fault fields of the session's chaos.Scenario.
type FaultsSpec struct {
	Seed int64 `json:"seed,omitempty"`
	// Loss is the uniform per-attempt link loss probability in [0,1).
	Loss float64 `json:"loss,omitempty"`
	// CrashNode, when present, crashes that node at CrashRound.
	CrashNode  *int `json:"crashNode,omitempty"`
	CrashRound int  `json:"crashRound,omitempty"`
}

// BatterySpec attaches a per-node residual-energy ledger and, optionally,
// the proactive evacuation horizon (reverse router only).
type BatterySpec struct {
	CapacityJ         float64 `json:"capacityJ"`
	EvacHorizonRounds int     `json:"evacHorizonRounds,omitempty"`
}

// CreateSessionRequest is the POST /v1/sessions payload.
type CreateSessionRequest struct {
	Topology TopologySpec  `json:"topology"`
	Workload WorkloadSpec  `json:"workload"`
	Router   string        `json:"router,omitempty"` // "reverse" (default) | "shared" | "spt" | "mindeg", or "mindegree"
	Readings *ReadingsSpec `json:"readings,omitempty"`
	Faults   *FaultsSpec   `json:"faults,omitempty"`
	Battery  *BatterySpec  `json:"battery,omitempty"`
	// MaxRetries bounds per-message stop-and-wait retransmissions
	// (0 = the session default of 3).
	MaxRetries int `json:"maxRetries,omitempty"`
}

// mindegAlias is the wire's alias of "mindeg", and both spellings' plan key.
const mindegAlias = "mindegree"

// routerKey is a request router's name in its plan key ("" is reverse).
func routerKey(name string) string {
	switch name {
	case "":
		return "reverse"
	case "mindeg":
		return mindegAlias
	}
	return name
}

// parseRouter resolves a request's router through chaos.Routers.
func parseRouter(name string) (m2m.RouterKind, error) {
	if name = routerKey(name); name == mindegAlias {
		name = "mindeg"
	}
	return m2m.ParseRouter(name)
}

// scenario is the session description the request's faults, battery and
// retry budget decode into.
func (r *CreateSessionRequest) scenario() chaos.Scenario {
	sc := chaos.Scenario{Nodes: r.Topology.size(), MaxRetries: r.MaxRetries}
	if f := r.Faults; f != nil {
		sc.FaultSeed, sc.Loss = f.Seed, f.Loss
		if f.CrashNode != nil {
			sc.Crashes = []chaos.CrashDim{{Node: *f.CrashNode, Round: f.CrashRound}}
		}
	}
	if b := r.Battery; b != nil {
		sc.Battery = &chaos.BatteryDim{CapacityJ: b.CapacityJ, EvacHorizon: b.EvacHorizonRounds}
	}
	return sc
}

// Validate checks structural validity; the server separately enforces its
// configured (tighter) size limits. The fault fields are checked as the
// scenario they decode into.
func (r *CreateSessionRequest) Validate() error {
	if err := r.Topology.validate(); err != nil {
		return err
	}
	if err := r.Workload.validate(); err != nil {
		return err
	}
	kind, err := parseRouter(r.Router)
	if err != nil {
		return err
	}
	if b := r.Battery; b != nil && b.EvacHorizonRounds > 0 && kind != m2m.RouterReversePath {
		return fmt.Errorf("serve: evacuation horizon requires the reverse router")
	}
	if err := r.Readings.validate(); err != nil {
		return err
	}
	if f := r.Faults; f != nil && f.CrashNode == nil && f.CrashRound != 0 {
		return fmt.Errorf("serve: crashRound %d without crashNode", f.CrashRound)
	}
	sc := r.scenario()
	if err := sc.ValidateFaults(); err != nil {
		return err
	}
	if r.MaxRetries < 0 || r.MaxRetries > 100 {
		return fmt.Errorf("serve: maxRetries %d outside [0,100]", r.MaxRetries)
	}
	return nil
}

// PlanKey returns the plan-cache key: a hash over the canonical
// (topology, workload, router) triple. Requests that differ only in
// readings, faults, battery, or retry budget share a plan.
func (r *CreateSessionRequest) PlanKey() (string, error) {
	wl, err := r.Workload.canon()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(r.Topology.canon() + "|router:" + routerKey(r.Router) + "|" + wl))
	return hex.EncodeToString(sum[:]), nil
}

// StepRequest is the POST /v1/sessions/{id}/step payload.
type StepRequest struct {
	// Rounds is how many rounds to execute (default 1).
	Rounds int `json:"rounds,omitempty"`
	// Values asks for each round's full destination-value map in
	// addition to the hash.
	Values bool `json:"values,omitempty"`
}

func (r *StepRequest) Validate() error {
	if r.Rounds < 0 || r.Rounds > maxRoundsHard {
		return fmt.Errorf("serve: rounds %d outside [0,%d]", r.Rounds, maxRoundsHard)
	}
	return nil
}

// SweepVariant is one arm of a scenario sweep: a named chaos/battery
// configuration applied to every seed in the range.
type SweepVariant struct {
	Name string `json:"name"`
	// Loss is the uniform per-attempt link loss for this arm; zero keeps
	// the arm fault-free.
	Loss float64 `json:"loss,omitempty"`
	// BatteryJ attaches a per-node ledger of this capacity; zero runs
	// without one.
	BatteryJ float64 `json:"batteryJ,omitempty"`
	// Rounds is this arm's session length (default 1). A fault-free
	// one-round arm executes as a single RunConcurrent batch.
	Rounds int `json:"rounds,omitempty"`
}

func (v *SweepVariant) validate(nodes int) error {
	if v.Name == "" {
		return fmt.Errorf("serve: sweep variant needs a name")
	}
	sc := v.scenario(nodes, 0)
	if err := sc.ValidateFaults(); err != nil {
		return fmt.Errorf("serve: variant %q: %w", v.Name, err)
	}
	if v.Rounds < 0 || v.Rounds > maxRoundsHard {
		return fmt.Errorf("serve: variant %q rounds %d outside [0,%d]", v.Name, v.Rounds, maxRoundsHard)
	}
	return nil
}

// scenario is the session description of the arm's run for one seed.
func (v *SweepVariant) scenario(nodes int, seed int64) chaos.Scenario {
	sc := chaos.Scenario{Nodes: nodes, FaultSeed: seed, Loss: v.Loss}
	if v.BatteryJ != 0 {
		sc.Battery = &chaos.BatteryDim{CapacityJ: v.BatteryJ}
	}
	return sc
}

// batched reports whether the arm can fan over RunConcurrent: fault-free
// single rounds are independent and share one compiled program.
func (v *SweepVariant) batched() bool {
	return v.Loss == 0 && v.BatteryJ == 0 && v.Rounds <= 1
}

// SweepRequest is the POST /v1/sweep payload: a seed range crossed with
// chaos/battery variants over one shared plan.
type SweepRequest struct {
	Topology TopologySpec   `json:"topology"`
	Workload WorkloadSpec   `json:"workload"`
	Router   string         `json:"router,omitempty"`
	SeedFrom int64          `json:"seedFrom"`
	SeedTo   int64          `json:"seedTo"` // exclusive
	Variants []SweepVariant `json:"variants"`
}

func (r *SweepRequest) Validate() error {
	if err := r.Topology.validate(); err != nil {
		return err
	}
	if err := r.Workload.validate(); err != nil {
		return err
	}
	if _, err := parseRouter(r.Router); err != nil {
		return err
	}
	if r.SeedTo <= r.SeedFrom {
		return fmt.Errorf("serve: empty seed range [%d,%d)", r.SeedFrom, r.SeedTo)
	}
	if r.SeedTo-r.SeedFrom > maxSweepSeeds {
		return fmt.Errorf("serve: seed range %d exceeds %d", r.SeedTo-r.SeedFrom, maxSweepSeeds)
	}
	if len(r.Variants) == 0 {
		return fmt.Errorf("serve: sweep needs at least one variant")
	}
	if len(r.Variants) > maxVariantsHard {
		return fmt.Errorf("serve: %d variants exceed %d", len(r.Variants), maxVariantsHard)
	}
	seen := make(map[string]bool, len(r.Variants))
	for i := range r.Variants {
		if err := r.Variants[i].validate(r.Topology.size()); err != nil {
			return err
		}
		if seen[r.Variants[i].Name] {
			return fmt.Errorf("serve: duplicate variant name %q", r.Variants[i].Name)
		}
		seen[r.Variants[i].Name] = true
	}
	return nil
}

// PlanKey mirrors CreateSessionRequest.PlanKey over the sweep's shared
// plan inputs.
func (r *SweepRequest) PlanKey() (string, error) {
	c := &CreateSessionRequest{Topology: r.Topology, Workload: r.Workload, Router: r.Router}
	return c.PlanKey()
}

// decodeStrict unmarshals data into v rejecting unknown fields, trailing
// garbage, and payloads that are not a single JSON object — the shared
// front door of every request decoder (and the surface the fuzzers
// hammer).
func decodeStrict(data []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: malformed request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("serve: trailing data after request body")
	}
	return nil
}

// DecodeCreateSession parses and validates a session-creation payload.
func DecodeCreateSession(data []byte) (*CreateSessionRequest, error) {
	var req CreateSessionRequest
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeStep parses and validates a step payload. An empty body is one
// round.
func DecodeStep(data []byte) (*StepRequest, error) {
	req := StepRequest{Rounds: 1}
	if len(bytes.TrimSpace(data)) > 0 {
		req = StepRequest{}
		if err := decodeStrict(data, &req); err != nil {
			return nil, err
		}
		if req.Rounds == 0 {
			req.Rounds = 1
		}
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeSweep parses and validates a sweep payload.
func DecodeSweep(data []byte) (*SweepRequest, error) {
	var req SweepRequest
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// HashValues digests a destination-value map exactly as served StepEvents
// do — the handle a replay harness needs to compare a local run against
// the server's telemetry.
func HashValues(values map[m2m.NodeID]float64) string { return valuesHash(values) }

// valuesHash digests a destination-value map into a stable hex string:
// destinations ascending, each contributing its id and the exact float64
// bits. Two sessions in the same state hash identically, which is what
// the load harness's post-run replay verification compares.
func valuesHash(values map[m2m.NodeID]float64) string {
	ids := make([]m2m.NodeID, 0, len(values))
	for d := range values {
		ids = append(ids, d)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := sha256.New()
	var buf [16]byte
	for _, d := range ids {
		putUint64(buf[:8], uint64(int64(d)))
		putUint64(buf[8:], math.Float64bits(values[d]))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * (7 - i)))
	}
}
