package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// sequence serializes a workload's setup requests and each client's first
// n operations.
func sequence(t *testing.T, g gen, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(g.setup()); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < numClients; c++ {
		for i := 0; i < n; i++ {
			if err := enc.Encode(g.op(c, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloadNames {
		a, err := newGen(w, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newGen(w, 42)
		other, _ := newGen(w, 43)
		n := 2 * a.windowOps()
		sa, sb, so := sequence(t, a, n), sequence(t, b, n), sequence(t, other, n)
		if !bytes.Equal(sa, sb) {
			t.Errorf("%s: seed 42 produced two different request sequences", w)
		}
		if bytes.Equal(sa, so) {
			t.Errorf("%s: seeds 42 and 43 produced the same request sequence", w)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := newGen("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSweepTopologiesDistinct(t *testing.T) {
	g, _ := newGen("cold_sweep", 7)
	seen := map[int64]bool{g.sweepReq(-1, 0).Topology.Seed: true}
	for c := 0; c < numClients; c++ {
		for j := 0; j < sweepsPerPass*sweepInputSets; j++ {
			s := g.sweepReq(c, j).Topology.Seed
			if seen[s] {
				t.Fatalf("topology seed %d repeats inside an input cycle", s)
			}
			seen[s] = true
		}
	}
}

// TestHeldOutSeed runs every workload's digest window on a seed not used
// while the benchmark was tuned, and requires the correctness gate to pass
// with no failed request.
func TestHeldOutSeed(t *testing.T) {
	const heldOut = 918273645
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			if testing.Short() && w == "cold_sweep" {
				t.Skip("cold_sweep builds sixteen 1000-node plans")
			}
			g, _ := newGen(w, heldOut)
			b, err := setup(g)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			ph, err := runPhase(g, b.lb, b.clients, 0.01, g.windowOps())
			if err != nil {
				t.Fatal(err)
			}
			if ph.failed != 0 {
				t.Fatalf("%d requests failed: %v", ph.failed, ph.errs)
			}
			v := verifyRecorded(b.rec)
			if len(v.mismatches) != 0 {
				t.Fatalf("correctness gate: %v", v.mismatches)
			}
			if v.checked == 0 {
				t.Fatal("correctness gate checked nothing")
			}
		})
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := 1; v <= 1000; v++ {
		h.add(float64(v))
	}
	for _, q := range []float64{0.5, 0.9} {
		want := quantile(seq(1000), q)
		if got := h.quantile(q); got < want*0.98 || got > want*1.02 {
			t.Errorf("q%.2f: got %.2f, want %.2f within 2%%", q, got, want)
		}
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// TestMetricsMatchBenchmarkJSON runs steady briefly in both modes and
// requires each to report exactly the metrics BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	g, _ := newGen("steady", 5)
	b, err := setup(g)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if _, err := runPhase(g, b.lb, b.clients, 0, g.windowOps()); err != nil {
		t.Fatal(err)
	}
	var phases []*phaseResult
	for i := 0; i < 2; i++ {
		ph, err := runPhase(g, b.lb, b.clients, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		phases = append(phases, ph)
	}
	res := result{Attempted: 1, Metrics: map[string]metric{}}
	endToEnd(g, b, phases[0], liveHeapMB(), res, verifyRecorded(b.rec))
	check := func(mode string, got map[string]metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics reported, %d declared", mode, len(got), len(want))
		}
		for _, w := range want {
			m, ok := got[w.Name]
			if !ok {
				t.Errorf("%s: %s not reported", mode, w.Name)
				continue
			}
			if m.Unit != w.Unit {
				t.Errorf("%s: %s reported in %s, declared in %s", mode, w.Name, m.Unit, w.Unit)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", mode, w.Name, m.Value)
			}
		}
	}
	check("end-to-end", res.Metrics, spec.EndToEnd)

	rep, err := runReplay(g, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.mismatches) != 0 {
		t.Fatalf("traced replay: %v", rep.mismatches)
	}
	layers := map[string]metric{}
	perLayer(g, b, phases, rep, layers)
	check("per-layer", layers, spec.PerLayer)
	if layers["sim.run_into_allocs"].Value != 0 {
		t.Errorf("RunInto allocates %v objects per round", layers["sim.run_into_allocs"].Value)
	}
}
