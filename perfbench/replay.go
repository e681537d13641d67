package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"

	"m2m"
	"m2m/internal/failure"
	"m2m/internal/graph"
	"m2m/internal/readings"
	"m2m/internal/serve"
	"m2m/internal/sim"
)

// reconcileSlack is the stated tolerance of the reconciliation check: the
// median loopback latency of a step and of a create must equal client
// self time + handler self time + direct layer time within this share of
// itself, or the run fails. Sweeps are reported, not checked: the replay
// has too few of them on cold_sweep for a steady median.
const reconcileSlack = 0.25

// replayResult is the traced replay's output: per-layer metrics, the
// outputs it cross-checked, and report lines.
type replayResult struct {
	checked    int
	mismatches []string
	report     []string
	metrics    map[string]metric
	reconErr   float64
}

// sampleSize fixes how much of a workload the traced replay repeats.
type sampleSize struct {
	creates, sessions, steps, plans, sweeps int
}

func (g gen) samples() sampleSize {
	if g.workload == "cold_sweep" {
		return sampleSize{creates: 12, sessions: 3, steps: 10, plans: 4, sweeps: 6}
	}
	return sampleSize{creates: 24, sessions: 4, steps: faultyLifeSteps, plans: 10, sweeps: 8}
}

// replayer replays a seeded sample of a workload's inputs three ways —
// over loopback HTTP, through the handler in process, and through each
// layer's public function — on servers of its own, one call at a time.
type replayer struct {
	g   gen
	tr  *tracer
	cl  *client
	in  *backend
	res *replayResult
	nid int

	plans map[string]*localPlan // direct-path plan cache, keyed like the server's

	sessions, rounds, recoveries, detours int
	delivered, transmissions              int
	reused, edges                         int
	problems                              []float64
}

func (r *replayer) mismatch(format string, args ...interface{}) {
	if len(r.res.mismatches) < 10 {
		r.res.mismatches = append(r.res.mismatches, fmt.Sprintf(format, args...))
	}
}

func (r *replayer) rid() string {
	r.nid++
	return fmt.Sprintf("replay-%d", r.nid)
}

// inproc calls the in-process server's handler directly, inside one span.
func (r *replayer) inproc(kind, method, path string, body []byte, out interface{}) error {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	sp := r.tr.begin("inproc."+kind, r.rid(), 0)
	r.in.h.ServeHTTP(rec, req)
	r.tr.end(sp)
	if rec.Code/100 != 2 {
		return fmt.Errorf("in-process %s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if out != nil {
		return json.Unmarshal(rec.Body.Bytes(), out)
	}
	return nil
}

func planKey(t serve.TopologySpec, gs *serve.GenerateSpec) string {
	return fmt.Sprintf("%+v|%+v", t, *gs)
}

// directPlan returns the plan for a topology and workload, building it
// through the layer functions on first use, as the plan cache does.
func (r *replayer) directPlan(req string, parent int, t serve.TopologySpec, gs *serve.GenerateSpec) (*localPlan, error) {
	k := planKey(t, gs)
	if lp := r.plans[k]; lp != nil {
		return lp, nil
	}
	lp, err := planLayers(r.tr, req, parent, t, gs)
	if err != nil {
		return nil, err
	}
	r.plans[k] = lp
	return lp, nil
}

// directSession builds a session the way the server's create does, from a
// cached plan.
func directSession(lp *localPlan, req *serve.CreateSessionRequest) (*m2m.ResilientSession, error) {
	n := lp.net.Len()
	gen := readings.NewRandomWalk(n, req.Readings.Seed, 20, 0.5)
	var faults m2m.FaultSchedule
	if f := req.Faults; f != nil {
		inj := m2m.NewFaultInjector(f.Seed)
		if f.Loss > 0 {
			inj.WithUniformLoss(f.Loss)
		}
		if f.CrashNode != nil {
			inj.Crash(m2m.NodeID(*f.CrashNode), f.CrashRound)
		}
		faults = inj
	}
	specs := append([]m2m.Spec(nil), lp.specs...)
	return m2m.NewResilientSessionWithPlan(lp.net, specs, m2m.RouterReversePath, lp.inst, lp.plan,
		gen, faults, m2m.ResilientConfig{MaxRetries: req.MaxRetries})
}

// lossOnly is the session's fault schedule without its crash, for running
// the original plan's lossy rounds on a separate engine.
func lossOnly(req *serve.CreateSessionRequest) sim.Faults {
	if req.Faults == nil || req.Faults.Loss == 0 {
		return nil
	}
	return m2m.NewFaultInjector(req.Faults.Seed).WithUniformLoss(req.Faults.Loss)
}

// replayCreateReq is the j-th create input of the replay, drawn from the
// workload's own generator.
func (r *replayer) createReq(j int) *serve.CreateSessionRequest {
	if r.g.workload != "cold_sweep" {
		return r.g.createReq(3000+j, 0)
	}
	sw := r.sweepReq(j % r.g.samples().sweeps)
	return &serve.CreateSessionRequest{
		Topology: sw.Topology,
		Workload: sw.Workload,
		Readings: &serve.ReadingsSpec{Kind: "walk", Seed: mix(r.g.seed, tagReadings, 3000, int64(j))},
	}
}

// sweepReq is the j-th sweep input: the workload's own pass inputs on
// cold_sweep, a 256-seed sweep over the shared GDI plan elsewhere.
func (r *replayer) sweepReq(j int) *serve.SweepRequest {
	if r.g.workload == "cold_sweep" {
		return r.g.sweepReq(j%numClients, j/numClients)
	}
	topo, wl := gdiWorkload()
	from := mix(r.g.seed, tagSweepSeeds, 3000, int64(j)) % 1_000_000_000
	return &serve.SweepRequest{Topology: topo, Workload: wl, SeedFrom: from, SeedTo: from + sweepSeeds,
		Variants: []serve.SweepVariant{{Name: "base"}}}
}

func (r *replayer) stepRounds() int {
	if r.g.workload == "churn" {
		return 1
	}
	return stepRounds
}

// rotate runs the three ways of sample j, starting with a different one
// for each j, so a cost one call leaves to the next (garbage for the
// collector, cold caches) does not bias one way.
func rotate(j int, ways ...func() error) error {
	for k := range ways {
		if err := ways[(j+k)%len(ways)](); err != nil {
			return err
		}
	}
	return nil
}

// replayCreates creates and destroys sample sessions three ways.
func (r *replayer) replayCreates(n int) error {
	for j := 0; j < n; j++ {
		req := r.createReq(j)
		body := mustJSON(req)
		var lr, ir serve.CreateSessionResponse
		rid := r.rid()
		lp, err := r.directPlan(rid, 0, req.Topology, req.Workload.Generate)
		if err != nil {
			return err
		}
		err = rotate(j, func() error {
			return r.cl.do(kindCreate, http.MethodPost, "/v1/sessions", body, &lr)
		}, func() error {
			return r.inproc(kindCreate, http.MethodPost, "/v1/sessions", body, &ir)
		}, func() error {
			sp := r.tr.begin("direct.create", rid, 0)
			defer r.tr.end(sp)
			return r.tr.call("session.create", rid, sp, func() error {
				_, err := directSession(lp, req)
				return err
			})
		})
		if err != nil {
			return err
		}
		if err := r.cl.do(kindDestroy, http.MethodDelete, "/v1/sessions/"+lr.ID, nil, nil); err != nil {
			return err
		}
		if err := r.inproc(kindDestroy, http.MethodDelete, "/v1/sessions/"+ir.ID, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// replaySession steps one sample session three ways in lockstep and
// cross-checks every round, and runs the same rounds through the lossy
// executor and the kernel on a separate engine.
func (r *replayer) replaySession(j, steps int) error {
	req := r.createReq(j)
	body := mustJSON(req)
	var lr, ir serve.CreateSessionResponse
	if err := r.cl.do(kindCreate, http.MethodPost, "/v1/sessions", body, &lr); err != nil {
		return err
	}
	if err := r.inproc(kindCreate, http.MethodPost, "/v1/sessions", body, &ir); err != nil {
		return err
	}
	rid := r.rid()
	lp, err := r.directPlan(rid, 0, req.Topology, req.Workload.Generate)
	if err != nil {
		return err
	}
	sess, err := directSession(lp, req)
	if err != nil {
		return err
	}
	eng, err := compile(r.tr, rid, 0, lp)
	if err != nil {
		return err
	}
	st := eng.NewRoundState()
	kgen := readings.NewRandomWalk(lp.net.Len(), req.Readings.Seed, 20, 0.5)
	kfaults := lossOnly(req)
	r.sessions++
	body = mustJSON(serve.StepRequest{Rounds: r.stepRounds()})
	for s := 0; s < steps; s++ {
		var ls, is serve.StepResponse
		rid := r.rid()
		hashes := make([]string, 0, r.stepRounds())
		err := rotate(s, func() error {
			return r.cl.do(kindStep, http.MethodPost, "/v1/sessions/"+lr.ID+"/step", body, &ls)
		}, func() error {
			return r.inproc(kindStep, http.MethodPost, "/v1/sessions/"+ir.ID+"/step", body, &is)
		}, func() error {
			sp := r.tr.begin("direct.step", rid, 0)
			defer r.tr.end(sp)
			for k := 0; k < r.stepRounds(); k++ {
				var rs *m2m.ResilientStep
				if err := r.tr.call("session.step", rid, sp, func() (err error) {
					rs, err = sess.Step()
					return err
				}); err != nil {
					return err
				}
				hashes = append(hashes, serve.HashValues(rs.Values))
				r.rounds++
				r.recoveries += len(rs.Recoveries)
				r.detours += rs.Detours
			}
			return nil
		})
		if err != nil {
			return err
		}
		if len(ls.Events) != len(hashes) || len(is.Events) != len(hashes) {
			r.mismatch("replay session %d step %d: %d/%d/%d rounds", j, s, len(ls.Events), len(is.Events), len(hashes))
			continue
		}
		for k, h := range hashes {
			r.res.checked++
			if ls.Events[k].ValuesHash != h || is.Events[k].ValuesHash != h {
				r.mismatch("replay session %d round %d: loopback %s in-process %s direct %s",
					j, ls.Events[k].Round, ls.Events[k].ValuesHash, is.Events[k].ValuesHash, h)
			}
		}
		for k := 0; k < r.stepRounds(); k++ {
			rd := kgen.Next()
			round := s*r.stepRounds() + k
			var lres *sim.LossyResult
			if err := r.tr.call("sim.run_lossy", rid, 0, func() (err error) {
				lres, err = eng.RunLossy(round, rd, kfaults, 3)
				return err
			}); err != nil {
				return err
			}
			r.delivered += lres.Messages - lres.Dropped
			r.transmissions += lres.Transmissions
			var kres *sim.RoundResult
			if err := r.tr.call("sim.run_into", rid, 0, func() (err error) {
				kres, err = eng.RunInto(rd, st)
				return err
			}); err != nil {
				return err
			}
			if req.Faults == nil {
				r.res.checked++
				if h := serve.HashValues(kres.Values); h != hashes[k] {
					r.mismatch("replay session %d round %d: kernel %s session %s", j, round, h, hashes[k])
				}
			}
		}
	}
	if err := r.cl.do(kindDestroy, http.MethodDelete, "/v1/sessions/"+lr.ID, nil, nil); err != nil {
		return err
	}
	return r.inproc(kindDestroy, http.MethodDelete, "/v1/sessions/"+ir.ID, nil, nil)
}

// replayPlans builds the workload's plans through the layer functions
// anew, compiles them, and replans each after removing a node.
func (r *replayer) replayPlans(n int) error {
	for j := 0; j < n; j++ {
		var topo serve.TopologySpec
		var gs *serve.GenerateSpec
		if r.g.workload == "cold_sweep" {
			sw := r.sweepReq(j)
			topo, gs = sw.Topology, sw.Workload.Generate
		} else {
			var wl serve.WorkloadSpec
			topo, wl = gdiWorkload()
			gs = wl.Generate
		}
		rid := r.rid()
		lp, err := planLayers(r.tr, rid, 0, topo, gs)
		if err != nil {
			return err
		}
		if _, err := compile(r.tr, rid, 0, lp); err != nil {
			return err
		}
		problems := len(lp.inst.EdgeList)
		inst2, err := removeSomeNode(lp, mix(r.g.seed, tagCrash, 3000, int64(j)))
		if err != nil {
			return err
		}
		var stats *m2m.UpdateStats
		if err := r.tr.call("plan.reoptimize", rid, 0, func() (err error) {
			_, stats, err = m2m.Reoptimize(lp.plan, inst2)
			return err
		}); err != nil {
			return err
		}
		r.reused += stats.EdgesReused
		r.edges += stats.EdgesTotal
		r.problems = append(r.problems, float64(problems+stats.EdgesSolved))
	}
	return nil
}

// removeSomeNode is the routing instance after a crash of a seeded node:
// the node leaves the graph and the workload is pruned, as a session's
// recovery does. Nodes whose removal leaves no valid instance are skipped.
func removeSomeNode(lp *localPlan, seed int64) (*m2m.Instance, error) {
	n := lp.net.Len()
	var lastErr error
	for k := 0; k < n; k++ {
		dead := graph.NodeID((seed + int64(k)) % int64(n))
		g2, err := failure.RemoveNode(lp.net.Graph, dead)
		if err != nil {
			lastErr = err
			continue
		}
		pruned, _, err := failure.PruneSpecs(lp.specs, dead)
		if err != nil || len(pruned) == 0 {
			lastErr = err
			continue
		}
		net2 := &m2m.Network{Layout: lp.net.Layout, Graph: g2, Radio: lp.net.Radio}
		inst2, err := net2.NewInstance(pruned, m2m.RouterReversePath)
		if err != nil {
			lastErr = err
			continue
		}
		return inst2, nil
	}
	return nil, fmt.Errorf("no removable node: %v", lastErr)
}

// replaySweeps runs sample sweeps three ways; the direct path builds (or
// reuses) the plan, compiles, generates the per-seed readings and fans
// them through RunConcurrent, as the handler does.
func (r *replayer) replaySweeps(n int) error {
	for j := 0; j < n; j++ {
		req := r.sweepReq(j)
		body := mustJSON(req)
		var ls, is serve.SweepResponse
		rid := r.rid()
		var rounds []*sim.RoundResult
		err := rotate(j, func() error {
			return r.cl.do(kindSweep, http.MethodPost, "/v1/sweep", body, &ls)
		}, func() error {
			return r.inproc(kindSweep, http.MethodPost, "/v1/sweep", body, &is)
		}, func() error {
			sp := r.tr.begin("direct.sweep", rid, 0)
			defer r.tr.end(sp)
			lp, err := r.directPlan(rid, sp, req.Topology, req.Workload.Generate)
			if err != nil {
				return err
			}
			eng, err := compile(r.tr, rid, sp, lp)
			if err != nil {
				return err
			}
			batch := make([]map[graph.NodeID]float64, req.SeedTo-req.SeedFrom)
			_ = r.tr.call("readings.generate", rid, sp, func() error {
				for i := range batch {
					batch[i] = sweepReadings(lp.net.Len(), req.SeedFrom+int64(i)).Next()
				}
				return nil
			})
			return r.tr.call("sim.run_concurrent", rid, sp, func() (err error) {
				rounds, err = eng.RunConcurrent(context.Background(), batch, runtime.GOMAXPROCS(0))
				return err
			})
		})
		if err != nil {
			return err
		}
		if len(ls.Variants) != 1 || len(is.Variants) != 1 || len(ls.Variants[0].Results) != len(rounds) || len(is.Variants[0].Results) != len(rounds) {
			r.mismatch("replay sweep %d: result shapes differ", j)
			continue
		}
		for i, rr := range rounds {
			r.res.checked++
			h := serve.HashValues(rr.Values)
			a, b := ls.Variants[0].Results[i], is.Variants[0].Results[i]
			if a.ValuesHash != h || b.ValuesHash != h || a.EnergyJ != rr.EnergyJ || b.EnergyJ != rr.EnergyJ {
				r.mismatch("replay sweep %d seed %d: loopback %s in-process %s direct %s", j, a.Seed, a.ValuesHash, b.ValuesHash, h)
			}
		}
	}
	return nil
}

// allocsPer counts heap allocations per call of f over n calls after one
// warm-up call, single-threaded so the count repeats exactly.
func allocsPer(n int, f func()) float64 {
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// measureAllocs fills the *_allocs metrics on the replay's first sample
// input with GOMAXPROCS=1 and the collector off, so a collection cannot
// empty a sync.Pool mid-count and the counts repeat exactly.
func (r *replayer) measureAllocs(m map[string]metric) error {
	req := r.createReq(0)
	lp, err := r.directPlan("allocs", 0, req.Topology, req.Workload.Generate)
	if err != nil {
		return err
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	sess, err := directSession(lp, req)
	if err != nil {
		return err
	}
	var stepErr error
	m["session.step_allocs"] = metric{allocsPer(faultyLifeSteps*stepRounds-1, func() {
		if _, err := sess.Step(); err != nil && stepErr == nil {
			stepErr = err
		}
	}), "count"}
	if stepErr != nil {
		return stepErr
	}
	var eng *sim.Engine
	var compErr error
	m["sim.compile_allocs"] = metric{allocsPer(3, func() {
		e, err := sim.NewEngine(lp.plan, lp.net.Radio, sim.Options{MergeMessages: true})
		if err != nil && compErr == nil {
			compErr = err
		}
		eng = e
	}), "count"}
	if compErr != nil {
		return compErr
	}
	rgen := readings.NewRandomWalk(lp.net.Len(), req.Readings.Seed, 20, 0.5)
	rds := make([]map[graph.NodeID]float64, 41)
	for i := range rds {
		rds[i] = rgen.Next()
	}
	faults := lossOnly(req)
	i := 0
	m["sim.run_lossy_allocs"] = metric{allocsPer(len(rds)-1, func() {
		_, _ = eng.RunLossy(i, rds[i], faults, 3)
		i++
	}), "count"}
	st := eng.NewRoundState()
	i = 0
	m["sim.run_into_allocs"] = metric{allocsPer(len(rds)-1, func() {
		_, _ = eng.RunInto(rds[i], st)
		i++
	}), "count"}
	m["plan.optimize_allocs"] = metric{allocsPer(3, func() {
		_, _ = m2m.Optimize(lp.inst)
	}), "count"}
	return nil
}

// runReplay performs the traced replay of a workload on fresh servers and
// derives every per-layer metric that does not come from the load phases.
func runReplay(g gen, tr *tracer) (*replayResult, error) {
	lb, err := startLoopback()
	if err != nil {
		return nil, err
	}
	defer lb.close()
	lb.tracer.Store(tr)
	in, err := newBackend()
	if err != nil {
		return nil, err
	}
	defer in.srv.Close()
	cl := newClient(numClients, g, lb.base)
	cl.tr = tr
	defer cl.close()
	r := &replayer{g: g, tr: tr, cl: cl, in: in, plans: map[string]*localPlan{},
		res: &replayResult{metrics: map[string]metric{}}}

	mark := tr.len()
	sz := g.samples()
	// Sweeps first: on cold_sweep they must miss the fresh servers' plan
	// caches, as the workload's sweeps do.
	if err := r.replaySweeps(sz.sweeps); err != nil {
		return nil, err
	}
	if err := r.replayCreates(sz.creates); err != nil {
		return nil, err
	}
	for j := 0; j < sz.sessions; j++ {
		if err := r.replaySession(j, sz.steps); err != nil {
			return nil, err
		}
	}
	if err := r.replayPlans(sz.plans); err != nil {
		return nil, err
	}
	if cl.failed > 0 {
		return nil, fmt.Errorf("replay requests failed: %v", cl.errs)
	}
	ss := newSpanSet(tr.since(mark))
	m := r.res.metrics
	if err := r.measureAllocs(m); err != nil {
		return nil, err
	}

	med := func(name string) float64 { return median(ss.durations(name)) }
	pk := g.primaryKind()
	m["client.self_us"] = metric{median(ss.selfTimes("client." + pk)), "us"}
	m["serve.step_handler_us"] = metric{med("inproc.step"), "us"}
	m["serve.create_handler_us"] = metric{med("inproc.create"), "us"}
	m["serve.sweep_handler_ms"] = metric{med("inproc.sweep") / 1e3, "ms"}
	m["serve.handler_self_us"] = metric{med("inproc."+pk) - med("direct."+pk), "us"}
	m["session.create_us"] = metric{med("session.create"), "us"}
	m["session.step_us"] = metric{med("session.step"), "us"}
	m["session.recoveries"] = metric{float64(r.recoveries) / float64(r.sessions), "count"}
	m["session.detours_per_round"] = metric{float64(r.detours) / float64(r.rounds), "count"}
	m["sim.run_lossy_us"] = metric{med("sim.run_lossy"), "us"}
	m["sim.delivered_per_attempt"] = metric{float64(r.delivered) / float64(r.transmissions), "ratio"}
	m["sim.run_into_us"] = metric{med("sim.run_into"), "us"}
	m["sim.run_concurrent_ms"] = metric{med("sim.run_concurrent") / 1e3, "ms"}
	m["sim.compile_us"] = metric{med("sim.compile"), "us"}
	m["plan.optimize_us"] = metric{med("plan.optimize"), "us"}
	m["plan.reoptimize_us"] = metric{med("plan.reoptimize"), "us"}
	m["plan.edges_reused_frac"] = metric{float64(r.reused) / float64(r.edges), "ratio"}
	m["topology.build_ms"] = metric{med("topology.build") / 1e3, "ms"}
	m["workload.generate_ms"] = metric{med("workload.generate") / 1e3, "ms"}
	m["routing.instance_ms"] = metric{med("routing.instance") / 1e3, "ms"}
	m["vcover.problems"] = metric{median(r.problems), "count"}

	// Reconciliation: loopback latency = client self + handler self +
	// direct layer time, per request kind, within reconcileSlack.
	for _, k := range []string{kindStep, kindCreate, kindSweep} {
		loop := med("client." + k)
		self := median(ss.selfTimes("client." + k))
		handlerSelf := med("inproc."+k) - med("direct."+k)
		direct := med("direct." + k)
		sum := self + handlerSelf + direct
		e := math.Abs(loop-sum) / loop
		verdict := "reported only"
		if k != kindSweep {
			r.res.reconErr = math.Max(r.res.reconErr, e)
			verdict = "ok"
			if e > reconcileSlack {
				verdict = "OUTSIDE SLACK"
				r.mismatch("reconciliation: %s loopback latency %.1f us differs from its parts %.1f us by %.3f, over the %.2f slack", k, loop, sum, e, reconcileSlack)
			}
		}
		r.res.report = append(r.res.report, fmt.Sprintf(
			"reconcile %-7s loopback %10.1f us = client self %8.1f + handler self %8.1f + layers %10.1f (= %10.1f); error %.3f (slack %.2f) %s",
			k, loop, self, handlerSelf, direct, sum, e, reconcileSlack, verdict))
	}
	return r.res, nil
}
