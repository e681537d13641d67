package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"m2m/internal/serve"
)

// Load shape shared by every workload: two closed-loop clients (the
// benchmark host has two CPUs), each waiting for a reply before it sends
// its next request.
const (
	numClients        = 2
	sessionsPerClient = 8 // steady and faulty: long-lived session slots per client
	stepRounds        = 5 // rounds per step request on steady and faulty

	// faulty: each session lives faultyLifeSteps step requests, then its
	// slot is destroyed and re-created with the next generation's seeds.
	faultyLifeSteps  = 8
	faultyLoss       = 0.1
	faultyCrashRound = 10

	// cold_sweep: a pass is sweepsPerPass requests per client over distinct
	// random topologies, on a fresh server, so the plan cache always
	// misses. Passes alternate between sweepInputSets sets of topologies,
	// and a pass must reproduce the outputs of the last pass on its set.
	sweepNodes     = 1000
	sweepSeeds     = 256
	sweepsPerPass  = 4
	sweepInputSets = 2
)

// Request kinds; the latency percentiles are reported per kind.
const (
	kindCreate  = "create"
	kindStep    = "step"
	kindDestroy = "destroy"
	kindSweep   = "sweep"
)

// request is one HTTP request of a generated sequence. Slot names the
// session it addresses (session ids are assigned by the server, so the
// sequence refers to slots); Body is the exact JSON payload sent.
type request struct {
	Kind string          `json:"kind"`
	Slot int             `json:"slot"`
	Gen  int             `json:"gen,omitempty"`
	Body json.RawMessage `json:"body,omitempty"`
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"steady", "churn", "faulty", "cold_sweep"}

// gen derives every request of a workload from the run seed alone.
type gen struct {
	workload string
	seed     int64
}

func newGen(workload string, seed int64) (gen, error) {
	for _, w := range workloadNames {
		if w == workload {
			return gen{workload: workload, seed: seed}, nil
		}
	}
	return gen{}, fmt.Errorf("unknown workload %q", workload)
}

// mix derives an independent non-negative stream seed from the run seed
// and a tuple of small integers (splitmix64 finalizer per element).
func mix(seed int64, parts ...int64) int64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, p := range parts {
		x ^= uint64(p) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// Stream tags keep the derived seeds of different purposes apart.
const (
	tagReadings = iota + 1
	tagFaults
	tagCrash
	tagTopology
	tagSweepSeeds
	tagWarm
	tagSample
)

// gdiWorkload is the m2mload default workload: the 68-node Great Duck
// Island layout with generated specs. Its generator seed is fixed, so every
// session of a run shares one cached plan.
func gdiWorkload() (serve.TopologySpec, serve.WorkloadSpec) {
	return serve.TopologySpec{Kind: "gdi"}, serve.WorkloadSpec{Generate: &serve.GenerateSpec{
		DestFraction: 0.2, SourcesPerDest: 8, Dispersion: 0.9, MaxHops: 4, Seed: 1,
	}}
}

// gdiSources lists, ascending, the nodes that feed some destination of the
// GDI workload. faulty crashes one of them in every session: a silent
// source is always implicated, so every session detects the crash and
// recovers once.
var gdiSources = sync.OnceValue(func() []int {
	topo, wl := gdiWorkload()
	net, err := buildNetwork(topo)
	if err != nil {
		panic(err)
	}
	specs, err := net.GenerateWorkload(workloadConfig(wl.Generate))
	if err != nil {
		panic(err)
	}
	seen := map[int]bool{}
	var out []int
	for _, sp := range specs {
		for _, src := range sp.Func.Sources() {
			if !seen[int(src)] {
				seen[int(src)] = true
				out = append(out, int(src))
			}
		}
	}
	sort.Ints(out)
	return out
})

func mustJSON(v interface{}) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// createReq is the create payload of session slot at generation g (churn
// uses the cycle index as g).
func (g gen) createReq(slot, gn int) *serve.CreateSessionRequest {
	topo, wl := gdiWorkload()
	req := &serve.CreateSessionRequest{
		Topology: topo,
		Workload: wl,
		Readings: &serve.ReadingsSpec{Kind: "walk", Seed: mix(g.seed, tagReadings, int64(slot), int64(gn))},
	}
	if g.workload == "faulty" {
		srcs := gdiSources()
		crash := srcs[mix(g.seed, tagCrash, int64(slot), int64(gn))%int64(len(srcs))]
		req.Faults = &serve.FaultsSpec{
			Seed:       mix(g.seed, tagFaults, int64(slot), int64(gn)),
			Loss:       faultyLoss,
			CrashNode:  &crash,
			CrashRound: faultyCrashRound,
		}
	}
	return req
}

// sweepReq is client c's j-th sweep of a cold_sweep input cycle; the
// warm-up sweep uses c = -1. Topology seeds are distinct per (c, j).
func (g gen) sweepReq(c, j int) *serve.SweepRequest {
	topoSeed := mix(g.seed, tagTopology, int64(c), int64(j))
	from := mix(g.seed, tagSweepSeeds, int64(c), int64(j)) % 1_000_000_000
	return &serve.SweepRequest{
		Topology: serve.TopologySpec{Kind: "random", Nodes: sweepNodes, Seed: topoSeed},
		Workload: serve.WorkloadSpec{Generate: &serve.GenerateSpec{
			DestFraction: 0.2, SourcesPerDest: 8, Dispersion: 0.9, MaxHops: 4, Seed: topoSeed,
		}},
		SeedFrom: from,
		SeedTo:   from + sweepSeeds,
		Variants: []serve.SweepVariant{{Name: "base"}},
	}
}

var stepBody = mustJSON(serve.StepRequest{Rounds: stepRounds})
var stepOneBody = mustJSON(serve.StepRequest{Rounds: 1})

// churnSlot is the slot each churn client creates and destroys every cycle.
func churnSlot(c int) int { return 1000 + c }

// setup returns the requests that make the server ready: the plan-cache
// fill and the initial sessions.
func (g gen) setup() []request {
	switch g.workload {
	case "steady", "faulty":
		out := make([]request, 0, numClients*sessionsPerClient)
		for slot := 0; slot < numClients*sessionsPerClient; slot++ {
			out = append(out, request{Kind: kindCreate, Slot: slot, Body: mustJSON(g.createReq(slot, 0))})
		}
		return out
	case "churn":
		warm := int(mix(g.seed, tagWarm) % 1_000_000)
		return []request{
			{Kind: kindCreate, Slot: -1, Gen: warm, Body: mustJSON(g.createReq(-1, warm))},
			{Kind: kindDestroy, Slot: -1},
		}
	default: // cold_sweep
		return []request{{Kind: kindSweep, Slot: -1, Body: mustJSON(g.sweepReq(-1, 0))}}
	}
}

// op returns client c's i-th closed-loop operation: the requests it sends
// back to back, each after the previous reply.
func (g gen) op(c, i int) []request {
	switch g.workload {
	case "steady":
		return []request{{Kind: kindStep, Slot: c*sessionsPerClient + i%sessionsPerClient, Body: stepBody}}
	case "faulty":
		slot := c*sessionsPerClient + i%sessionsPerClient
		n := i / sessionsPerClient // steps already sent to this slot
		step := request{Kind: kindStep, Slot: slot, Gen: n / faultyLifeSteps, Body: stepBody}
		if n > 0 && n%faultyLifeSteps == 0 {
			return []request{
				{Kind: kindDestroy, Slot: slot},
				{Kind: kindCreate, Slot: slot, Gen: step.Gen, Body: mustJSON(g.createReq(slot, step.Gen))},
				step,
			}
		}
		return []request{step}
	case "churn":
		slot := churnSlot(c)
		return []request{
			{Kind: kindCreate, Slot: slot, Gen: i, Body: mustJSON(g.createReq(slot, i))},
			{Kind: kindStep, Slot: slot, Gen: i, Body: stepOneBody},
			{Kind: kindDestroy, Slot: slot, Gen: i},
		}
	default: // cold_sweep
		j := i % (sweepsPerPass * sweepInputSets)
		return []request{{Kind: kindSweep, Slot: c, Gen: j, Body: mustJSON(g.sweepReq(c, j))}}
	}
}

// primaryKind is the request whose latency a workload reports as
// req_p50_ms and req_p90_ms.
func (g gen) primaryKind() string {
	switch g.workload {
	case "churn":
		return kindCreate
	case "cold_sweep":
		return kindSweep
	}
	return kindStep
}

// sampled reports whether (a, b) belongs to the seeded verification
// sample, which keeps about one in every `every`.
func (g gen) sampled(every int64, a, b int) bool {
	return mix(g.seed, tagSample, int64(a), int64(b))%every == 0
}
