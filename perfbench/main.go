// Command perfbench is the served-stack benchmark: two closed-loop clients
// drive an in-process m2m session server (internal/serve) over HTTP/JSON
// on loopback, on one of four workloads, and report end-to-end metrics
// (--trace 0) or per-layer metrics from a traced replay (--trace 1).
//
//	perfbench --workload steady --seed 1 --seconds 15 --trace 0
//
// Every input derives from --seed. Served outputs are checked against a
// local replay; a mismatch prints correct=false and exits 1. The last
// line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"m2m/internal/serve"
)

// setupTrials is how many times a run builds its server state from
// nothing; setup_s is the median.
const setupTrials = 11

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "steady | churn | faulty | cold_sweep")
		seed     = flag.Int64("seed", 1, "workload seed; every input derives from it")
		seconds  = flag.Float64("seconds", 15, "timed phase length in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		root     = flag.String("root", ".", "repository root (for the host block)")
		out      = flag.String("out", "", "directory for the full result and the span file (empty: none)")
	)
	flag.Parse()
	g, err := newGen(*workload, *seed)
	if err == nil && (*seconds <= 0 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	host := readHost(*root)
	hb, _ := json.Marshal(map[string]interface{}{"host": host})
	fmt.Println(string(hb))

	b, err := setup(g)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
		return 1
	}
	defer b.close()

	// The digest window: a fixed amount of work, untimed, whose outputs
	// are digested and after which the live heap is measured.
	win, err := runPhase(g, b.lb, b.clients, 0, g.windowOps())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	heapMB := liveHeapMB()

	var tr *tracer
	var rep *replayResult
	phases := []*phaseResult{}
	if *trace == 0 {
		ph, err := runPhase(g, b.lb, b.clients, *seconds, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		phases = append(phases, ph)
	} else {
		// Untraced and traced halves on the same sessions: the difference
		// of their latencies is the tracing overhead.
		ph, err := runPhase(g, b.lb, b.clients, *seconds/2, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		phases = append(phases, ph)
		tr = newTracer()
		b.lb.tracer.Store(tr)
		for _, c := range b.clients {
			c.tr = tr
		}
		ph, err = runPhase(g, b.lb, b.clients, *seconds/2, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		phases = append(phases, ph)
		b.lb.tracer.Store(nil)
		for _, c := range b.clients {
			c.tr = nil
		}
		if rep, err = runReplay(g, tr); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: replay: %v\n", err)
			return 1
		}
	}

	v := verifyRecorded(b.rec)
	if rep != nil {
		v.checked += rep.checked
		v.mismatches = append(v.mismatches, rep.mismatches...)
	}
	res := result{Correct: len(v.mismatches) == 0, Attempted: b.setupTried, Metrics: map[string]metric{}}
	var errs []string
	for _, ph := range append([]*phaseResult{win}, phases...) {
		res.Attempted += ph.tried
		res.Failed += ph.failed
		errs = append(errs, ph.errs...)
	}
	if *trace == 0 {
		endToEnd(g, b, phases[0], heapMB, res, v)
	} else {
		perLayer(g, b, phases, rep, res.Metrics)
	}

	fmt.Printf("digest window: %d ops, %d requests in %.2fs; live heap after it %.2f MB\n", win.ops, win.tried, win.wall.Seconds(), heapMB)
	printReport(g, b, phases, v, rep, res, errs)
	if *out != "" {
		if err := writeArtifacts(*out, g, *trace, host, b, res, tr); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing results: %v\n", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is the state a run keeps from setup to the end.
type bench struct {
	lb         *loopback
	clients    []*client
	rec        *recorder
	setupS     []float64
	setupTried int
	setupStats serve.StatsResponse // server counters at the end of setup
}

func (b *bench) close() {
	for _, c := range b.clients {
		c.close()
	}
	b.lb.close()
}

// setup makes the server ready setupTrials times: start the loopback
// server, fill the plan cache and create the initial sessions. The last
// trial's state is kept for the timed phase.
func setup(g gen) (_ *bench, err error) {
	b := &bench{rec: newRecorder(g)}
	defer func() {
		if err != nil && b.lb != nil {
			b.close()
		}
	}()
	for t := 0; t < setupTrials; t++ {
		if b.lb != nil {
			b.close()
			b.lb = nil
		}
		runtime.GC()
		t0 := time.Now()
		lb, err := startLoopback()
		if err != nil {
			return nil, err
		}
		b.lb = lb
		b.clients = nil
		for c := 0; c < numClients; c++ {
			cl := newClient(c, g, lb.base)
			cl.rec = b.rec
			b.clients = append(b.clients, cl)
		}
		for _, r := range g.setup() {
			// Each session slot is created by the client that owns it.
			c := b.clients[0]
			if r.Slot >= 0 && r.Slot < numClients*sessionsPerClient {
				c = b.clients[r.Slot/sessionsPerClient]
			}
			if err := c.exec(r, -1); err != nil {
				return nil, fmt.Errorf("setup request %s: %w", r.Kind, err)
			}
		}
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
		for _, c := range b.clients {
			b.setupTried += c.tried
			c.tried = 0
			c.lat = map[string]*hist{}
		}
	}
	st, err := statsOf(b.lb.cur.Load().h)
	if err != nil {
		return nil, err
	}
	b.setupStats = st
	runtime.GC()
	return b, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// liveHeapMB is the heap still reachable after two forced collections
// (the second empties sync.Pool victim caches), in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func endToEnd(g gen, b *bench, ph *phaseResult, heapMB float64, res result, v *verifyResult) {
	m := res.Metrics
	pk := g.primaryKind()
	var rate, p50, p90 []float64
	for _, sl := range ph.slices {
		rate = append(rate, float64(sl.rounds)/sl.dur)
		p50 = append(p50, sl.lat[pk].quantile(0.5))
		p90 = append(p90, sl.lat[pk].quantile(0.9))
	}
	m["setup_s"] = metric{median(b.setupS), "s"}
	m["rounds_per_s"] = metric{median(rate), "1/s"}
	m["req_p50_ms"] = metric{median(p50) / 1e3, "ms"}
	m["req_p90_ms"] = metric{median(p90) / 1e3, "ms"}
	m["ok_frac"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "ratio"}
	m["energy_mj_per_round"] = metric{b.rec.energyJ * 1e3 / float64(b.rec.rounds), "mJ"}
	m["fresh_frac"] = metric{freshFrac(g, b.rec, v), "ratio"}
	m["heap_live_mb"] = metric{heapMB, "MB"}
}

// freshFrac is fresh destination-rounds over all destination-rounds in the
// digest window. A fault-free sweep round is exact by construction, so on
// cold_sweep it is the share of checked sweep seeds that matched the local
// exact run.
func freshFrac(g gen, rec *recorder, v *verifyResult) float64 {
	if g.workload == "cold_sweep" {
		if v.checked == 0 {
			return 0
		}
		return float64(v.checked-len(v.mismatches)) / float64(v.checked)
	}
	return float64(rec.fresh) / float64(rec.destRnds)
}

func printReport(g gen, b *bench, phases []*phaseResult, v *verifyResult, rep *replayResult, res result, errs []string) {
	fmt.Printf("workload %s seed %d: %d clients, closed loop, primary request %s\n", g.workload, g.seed, numClients, g.primaryKind())
	for i, ph := range phases {
		fmt.Printf("phase %d: %.2fs wall, %d ops, %d requests, %d rounds, %d failed, shed %d, timeouts %d\n",
			i, ph.wall.Seconds(), ph.ops, ph.tried, ph.rounds, ph.failed, ph.stats.Shed, ph.stats.Timeouts)
		kinds := make([]string, 0, len(ph.lat))
		for k := range ph.lat {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			l := ph.lat[k]
			fmt.Printf("  %s_p50_ms %.4f ms  %s_p90_ms %.4f ms  (n=%d)\n", k, l.quantile(0.5)/1e3, k, l.quantile(0.9)/1e3, l.n)
		}
	}
	fmt.Printf("setup trials (s): %v\n", b.setupS)
	fmt.Printf("output digest %s over %d window rounds; %d outputs checked against local replay\n", b.rec.digest(), b.rec.rounds, v.checked)
	for _, e := range errs {
		fmt.Printf("request error: %s\n", e)
	}
	for _, mm := range v.mismatches {
		fmt.Printf("MISMATCH: %s\n", mm)
	}
	if rep != nil {
		for _, line := range rep.report {
			fmt.Println(line)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func writeArtifacts(dir string, g gen, trace int, host hostInfo, b *bench, res result, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", g.workload, g.seed, trace))
	full, err := json.MarshalIndent(map[string]interface{}{
		"workload": g.workload, "seed": g.seed, "host": host,
		"digest": b.rec.digest(), "setup_s": b.setupS, "result": res,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", full, 0o644); err != nil {
		return err
	}
	if tr != nil {
		return tr.write(base + ".spans.json")
	}
	return nil
}

func perLayer(g gen, b *bench, phases []*phaseResult, rep *replayResult, m map[string]metric) {
	for k, v := range rep.metrics {
		m[k] = v
	}
	hits, misses := b.setupStats.PlanCacheHits, b.setupStats.PlanCacheMisses
	var shed, timeouts int64
	for _, ph := range phases {
		hits += ph.stats.PlanCacheHits
		misses += ph.stats.PlanCacheMisses
		shed += ph.stats.Shed
		timeouts += ph.stats.Timeouts
	}
	m["serve.plan_cache_hit_frac"] = metric{float64(hits) / float64(hits+misses), "ratio"}
	m["serve.shed"] = metric{float64(shed), "count"}
	m["serve.timeouts"] = metric{float64(timeouts), "count"}
	pk := g.primaryKind()
	m["trace.overhead_us"] = metric{phases[1].lat[pk].quantile(0.5) - phases[0].lat[pk].quantile(0.5), "us"}
	m["trace.reconcile_err_frac"] = metric{rep.reconErr, "ratio"}
}
