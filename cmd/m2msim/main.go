// Command m2msim runs one many-to-many aggregation scenario end to end
// and reports per-algorithm round energy, message counts, and (optionally)
// the computed destination values.
//
// Usage:
//
//	m2msim                                  # paper defaults on the GDI network
//	m2msim -nodes 150 -dests 0.25 -sources 20 -dispersion 0.5
//	m2msim -router shared -values
//	m2msim -loss 0.1                        # lossy rounds at 10% per-attempt link loss
//	m2msim -loss 0.05 -fail-node 12 -fail-round 2
//	m2msim -loss 0.1 -jitter 20             # event-driven rounds, ±20ms link jitter
//	m2msim -dup 0.2 -jitter 15 -deadline 500
//	m2msim -partition 20 -partition-round 2 -partition-len 4
//	m2msim -loss 0.05 -fail-node 12 -fail-round 2 -revive 8
//	m2msim -nodes 50 -sources 6 -battery 2 -partition 10
//	m2msim -byzantine 7 -byz-mode amplify -byz-param 50
//	m2msim -byzantine 7 -byz-round 2 -byz-len 6 -trace stations.csv
//	m2msim -collide -capture 0.1             # contention session, adaptive TDMA switch
//	m2msim -collide -tdma -router mindeg     # schedule eagerly over the low fan-in tree
//	m2msim -collide -loss 0.05 -fail-node 12 -fail-round 4
//	m2msim -scenario 8449                    # replay a generated fuzz scenario
//	m2msim -scenario repro-seed8449.json     # replay a scenario repro file
//
// The fault flags fill the fault fields of one chaos.Scenario, whose
// validation decides which combinations are legal: the composition rules
// the scenario fuzzer draws from. Only a flag given without the flag that
// switches its fault on (-capture without -collide, say) is caught here.
//
// -loss, -fail-node, -jitter, -dup and -deadline alone run the optimal
// plan a few rounds on the lossy engine (stop-and-wait, 3 retries), or on
// the event-driven engine once -jitter (2ms plus up to -jitter ms per
// link), -dup or -deadline is given. -partition (a connected side of
// about that many nodes, the base station outside it), -revive, -battery
// (joules per node), -byzantine and -collide run the self-healing session
// instead, built as the fuzzer builds a scenario's session, for as many
// rounds as the slowest armed fault needs to play out; with -battery, on
// to three rounds past the first depletion (at most 500). Each round
// prints one row of delivery, recovery, epoch, collision, suspect and
// ledger counters. -router takes the scenario names reverse, shared, spt
// and mindeg (the minimum-degree spanning tree, low receiver fan-in).
//
// -trace replays a station-trace file (one row per round, one reading
// per node, comma- or whitespace-separated, '#' comments and a header
// skipped) instead of synthetic temperatures; the single-round
// comparison uses its first row. -scenario takes a fuzz seed or a JSON
// repro, steps its session and prints the invariant report, ignoring the
// other flags. Exit status: 0 clean, 1 a failed run or invariant report,
// 2 bad flags or an illegal fault combination.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strconv"

	"m2m"
	"m2m/internal/agg"
	"m2m/internal/chaos"
	"m2m/internal/invariant"
	"m2m/internal/plan"
	"m2m/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	nodes, sources, maxHops, failNode, failRound, partition, partRound, partLen int
	revive, evacuate, byzNode, byzRound, byzLen                                 int
	dests, dispersion, loss, jitter, dup, deadline, battery, byzParam, capture  float64
	seed                                                                        int64
	router, traceFile, wlFile, byzMode, scenario                                string
	values, traceUnits, collide, tdma                                           bool
}

// needs pairs each flag with the flag that switches its fault on. Giving
// the first while the second is at its default is the one mistake a
// Scenario cannot express.
var needs = []struct{ flag, parent string }{
	{"fail-round", "fail-node"}, {"revive", "fail-node"},
	{"partition-round", "partition"}, {"partition-len", "partition"}, {"evac-horizon", "battery"},
	{"byz-mode", "byzantine"}, {"byz-param", "byzantine"}, {"byz-round", "byzantine"}, {"byz-len", "byzantine"},
	{"capture", "collide"}, {"tdma", "collide"},
}

// usageError marks an error in what was asked for, as opposed to one met
// while running it; it exits 2.
type usageError struct{ error }

// run is main with its arguments and streams passed in; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if o.scenario != "" {
		err = runScenario(stdout, o.scenario)
	} else {
		err = simulate(o, stdout)
	}
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "m2msim:", err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// parseFlags parses args, reporting any error on stderr itself.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("m2msim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.IntVar(&o.nodes, "nodes", 0, "random network size (0 = the 68-node Great Duck Island layout)")
	fs.Float64Var(&o.dests, "dests", 0.2, "fraction of nodes acting as destinations")
	fs.IntVar(&o.sources, "sources", 20, "sources per destination")
	fs.Float64Var(&o.dispersion, "dispersion", 0.9, "dispersion factor d in [0,1]")
	fs.IntVar(&o.maxHops, "maxhops", 4, "source hop limit H (0 = uniform network-wide)")
	fs.StringVar(&o.router, "router", "reverse", "router: "+fmt.Sprint(chaos.Routers))
	fs.Int64Var(&o.seed, "seed", 1, "workload/network/fault seed")
	fs.BoolVar(&o.values, "values", false, "print computed destination values")
	fs.BoolVar(&o.traceUnits, "trace-units", false, "print every message unit of the optimal plan's round")
	fs.StringVar(&o.traceFile, "trace", "", "replay a station-trace file (one row per round, one reading per node) as the reading stream")
	fs.StringVar(&o.wlFile, "workload", "", "load the workload from a spec file instead of generating it")
	fs.Float64Var(&o.loss, "loss", 0, "uniform per-attempt link loss probability in [0,1)")
	fs.IntVar(&o.failNode, "fail-node", -1, "node to crash (-1 = none)")
	fs.IntVar(&o.failRound, "fail-round", 0, "round at which -fail-node crashes")
	fs.Float64Var(&o.jitter, "jitter", 0, "per-link latency jitter amplitude in ms (event-driven rounds)")
	fs.Float64Var(&o.dup, "dup", 0, "per-delivery duplication probability in [0,1) (event-driven rounds)")
	fs.Float64Var(&o.deadline, "deadline", 0, "round deadline in ms, 0 = none (event-driven rounds)")
	fs.IntVar(&o.partition, "partition", 0, "sever a connected side of about this many nodes")
	fs.IntVar(&o.partRound, "partition-round", 1, "round at which the partition starts")
	fs.IntVar(&o.partLen, "partition-len", 3, "rounds the partition lasts before healing")
	fs.IntVar(&o.revive, "revive", 0, "round at which -fail-node comes back to life (0 = never)")
	fs.Float64Var(&o.battery, "battery", 0, "per-node battery capacity in joules")
	fs.IntVar(&o.evacuate, "evac-horizon", 0, "evacuate a relay when its forecast time-to-death drops to this many rounds (0 = reactive only)")
	fs.IntVar(&o.byzNode, "byzantine", -1, "node that lies about its own reading (-1 = none)")
	fs.StringVar(&o.byzMode, "byz-mode", "stuck", "misbehavior mode for -byzantine: stuck | offset | amplify | spray")
	fs.Float64Var(&o.byzParam, "byz-param", 1000, "misbehavior parameter: stuck value, per-round offset, gain, or spray amplitude")
	fs.IntVar(&o.byzRound, "byz-round", 0, "round at which -byzantine starts lying")
	fs.IntVar(&o.byzLen, "byz-len", 0, "rounds the lying lasts (0 = forever)")
	fs.BoolVar(&o.collide, "collide", false, "run rounds on the slot-contention channel")
	fs.Float64Var(&o.capture, "capture", 0, "capture probability in [0,1): chance a colliding frame survives anyway")
	fs.BoolVar(&o.tdma, "tdma", false, "switch to TDMA right after the first contended round instead of at the default threshold")
	fs.StringVar(&o.scenario, "scenario", "", "replay a fuzz scenario, given as a seed or a JSON repro path, and print its invariant report (ignores the other flags)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	for _, n := range needs {
		if p := fs.Lookup(n.parent); given[n.flag] && p.Value.String() == p.DefValue && o.scenario == "" {
			fmt.Fprintf(stderr, "m2msim: -%s without -%s\n", n.flag, n.parent)
			return nil, errors.New("flag without its parent")
		}
	}
	return o, nil
}

// faults writes the fault flags as the fault fields of a scenario on net.
func (o *options) faults(net *m2m.Network) (*m2m.Scenario, error) {
	sc := &m2m.Scenario{Nodes: net.Len(), FaultSeed: o.seed, Loss: o.loss}
	if o.jitter != 0 || o.dup != 0 || o.deadline != 0 {
		sc.Async = &chaos.AsyncDim{JitterMS: o.jitter, DupProb: o.dup, DeadlineMS: o.deadline}
		if o.jitter > 0 {
			sc.Async.BaseMS = 2
		}
	}
	if o.failNode != -1 {
		sc.Crashes = []chaos.CrashDim{{Node: o.failNode, Round: o.failRound, Revive: o.revive}}
	}
	if o.partition != 0 {
		side, err := chaos.BaseFreeSide(net.Graph, o.partition)
		if err != nil {
			return nil, err
		}
		sc.Partition = &chaos.PartitionDim{Size: o.partition, Start: o.partRound, Rounds: o.partLen}
		for _, n := range side {
			sc.Partition.Side = append(sc.Partition.Side, int(n))
		}
	}
	if o.battery != 0 {
		sc.Battery = &chaos.BatteryDim{CapacityJ: o.battery, EvacHorizon: o.evacuate}
	}
	if o.byzNode != -1 {
		sc.Byzantine = []chaos.ByzDim{{Node: o.byzNode, Mode: o.byzMode, Param: o.byzParam, Start: o.byzRound, Rounds: o.byzLen}}
	}
	if o.collide {
		sc.Collide = &chaos.CollideDim{Capture: o.capture, EagerTDMA: o.tdma}
	}
	return sc, nil
}

func simulate(o *options, w io.Writer) error {
	kind, err := m2m.ParseRouter(o.router)
	if err != nil {
		return usageError{err}
	}
	net := m2m.GreatDuckIsland()
	if o.nodes > 0 {
		net = m2m.RandomNetwork(o.nodes, o.seed)
	}
	sc, err := o.faults(net)
	if err != nil {
		return usageError{err}
	}
	var specs []m2m.Spec
	if o.wlFile != "" {
		if specs, err = parseFile(o.wlFile, m2m.ParseWorkload); err != nil {
			return err
		}
	} else if specs, err = net.GenerateWorkload(m2m.WorkloadConfig{
		DestFraction: o.dests, SourcesPerDest: o.sources, Dispersion: o.dispersion, MaxHops: o.maxHops, Seed: o.seed,
	}); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(o.seed))
	readings := make(map[m2m.NodeID]float64, net.Len())
	for i := 0; i < net.Len(); i++ {
		readings[m2m.NodeID(i)] = 20 + rng.NormFloat64()*5 // temperature-ish
	}
	// gen is the multi-round reading stream: a fresh replay of the trace,
	// or the fixed synthetic readings.
	var gen m2m.ReadingGenerator = fixedReadings(readings)
	var traceRows [][]float64
	if o.traceFile != "" {
		if traceRows, err = parseFile(o.traceFile, m2m.ParseTrace); err != nil {
			return err
		}
		tr, err := m2m.NewTraceReadings(net.Len(), traceRows)
		if err != nil {
			return err
		}
		// The comparison sees the trace's first round; the session replays
		// it from the start (no error: tr has just accepted these rows).
		readings = tr.Next()
		gen, _ = m2m.NewTraceReadings(net.Len(), traceRows)
	}

	// Build, and so validate, what runs the rounds before any round runs.
	var session *m2m.ScenarioRun
	var inj *m2m.FaultInjector
	if sc.Partition != nil || sc.Battery != nil || len(sc.Byzantine) > 0 || sc.Collide != nil || o.revive != 0 {
		if session, err = m2m.NewScenarioRunOn(sc, net, specs, kind, gen); err != nil {
			return usageError{err}
		}
	} else if inj, err = sc.Injector(); err != nil {
		return usageError{err}
	}

	inst, err := net.NewInstance(specs, kind)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "network: %d nodes, %d edges; workload: %d destinations × %d sources (d=%.2f)\n",
		net.Len(), net.Graph.NumEdges(), len(specs), o.sources, o.dispersion)
	if traceRows != nil {
		fmt.Fprintf(w, "readings: replaying %s (%d stations × %d rounds, cycling)\n",
			o.traceFile, net.Len(), len(traceRows))
	}
	opt, err := m2m.Optimize(inst)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "optimal plan: %d units over %d edges, %d consistency repairs\n",
		len(opt.Units()), len(inst.EdgeList), opt.Repairs)
	if err := o.compare(w, net, specs, inst, opt, readings); err != nil {
		return err
	}

	switch {
	case session != nil:
		describe(w, sc, specs)
		rounds := horizon(sc)
		fmt.Fprintf(w, "\nsession (seed %d, loss %.3f; %d rounds):\n", o.seed, o.loss, rounds)
		return stepSession(w, session, rounds, sc.Battery != nil)
	case o.loss > 0 || sc.Async != nil || len(sc.Crashes) > 0:
		return runChaos(w, opt, net, readings, sc, inj)
	}
	return nil
}

// compare prints the single-round comparison of the optimal plan with
// the baselines, after the optimal round's unit trace if asked for.
func (o *options) compare(w io.Writer, net *m2m.Network, specs []m2m.Spec, inst *m2m.Instance, opt *m2m.Plan, readings map[m2m.NodeID]float64) error {
	if o.traceUnits {
		eng, err := sim.NewEngine(opt, net.Radio, sim.Options{MergeMessages: true})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\nexecution trace (topological unit order):")
		_, err = eng.RunObserved(readings, func(u plan.Unit, raw float64, rec agg.Record) {
			if u.Kind == plan.UnitRaw {
				fmt.Fprintf(w, "  %3d→%-3d raw    src=%-3d value=%.4f\n", u.Edge.From, u.Edge.To, u.Node, raw)
			} else {
				fmt.Fprintf(w, "  %3d→%-3d record dst=%-3d partial=%v\n", u.Edge.From, u.Edge.To, u.Node, rec)
			}
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n%-12s %14s %10s\n", "algorithm", "round energy", "messages")
	for _, a := range []struct {
		name string
		p    *m2m.Plan // nil: flood
	}{{"optimal", opt}, {"multicast", m2m.Multicast(inst)}, {"aggregation", m2m.AggregateASAP(inst)}, {"flood", nil}} {
		if a.p == nil {
			r, err := m2m.Flood(net, specs, readings)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s %11.2f mJ %10d\n", a.name, r.EnergyJ*1e3, r.Broadcasts)
			continue
		}
		r, err := m2m.Execute(a.p, net, readings)
		if err != nil {
			return err
		}
		if o.values && a.p == opt {
			printValues(w, r.Values)
		}
		fmt.Fprintf(w, "%-12s %11.2f mJ %10d\n", a.name, r.EnergyJ*1e3, r.Messages)
	}
	return nil
}

// horizon is how many rounds a flag-built session runs: the most any
// armed fault needs to play out and be recovered from.
func horizon(sc *m2m.Scenario) int {
	h := 0
	if sc.Collide != nil {
		h = 8
	}
	for _, c := range sc.Crashes {
		h = max(h, c.Round+4)
		if c.Revive > 0 {
			h = max(h, 6, c.Revive+3)
		}
	}
	if p := sc.Partition; p != nil {
		h = max(h, 6, p.Start+p.Rounds+3)
	}
	// Default quarantine tuning excises a liar after 3 bad rounds and
	// re-admits it after 8 clean ones: watch the excision and, for a
	// finite window, the re-admission.
	for _, b := range sc.Byzantine {
		if b.Rounds == 0 {
			h = max(h, b.Start+6)
		} else {
			h = max(h, b.Start+b.Rounds+10)
		}
	}
	return h
}

// describe prints one line per armed session fault.
func describe(w io.Writer, sc *m2m.Scenario, specs []m2m.Spec) {
	if p := sc.Partition; p != nil {
		fmt.Fprintf(w, "\npartition: severing %d nodes %v for rounds %d–%d\n", len(p.Side), p.Side, p.Start, p.Start+p.Rounds-1)
	}
	if b := sc.Battery; b != nil {
		fmt.Fprintf(w, "\nbattery: %.3g J/node, evac horizon %d; run on to 3 rounds past the first depletion\n", b.CapacityJ, b.EvacHorizon)
	}
	for _, b := range sc.Byzantine {
		window := "forever"
		if b.Rounds > 0 {
			window = fmt.Sprintf("for %d rounds", b.Rounds)
		}
		fmt.Fprintf(w, "\nbyzantine: node %d lies %s %.4g from round %d %s\n", b.Node, b.Mode, b.Param, b.Start, window)
		if !slices.ContainsFunc(specs, func(sp m2m.Spec) bool { return slices.Contains(sp.Func.Sources(), m2m.NodeID(b.Node)) }) {
			fmt.Fprintf(w, "note: node %d is not a source of any aggregate; its lies never enter a reading and the quarantine loop will not observe it\n", b.Node)
		}
	}
	if c := sc.Collide; c != nil {
		fmt.Fprintf(w, "\ncontention: capture %.2f, eager TDMA %v\n", c.Capture, c.EagerTDMA)
	}
}

// maxLedgerRounds bounds a battery session that never sees a depletion.
const maxLedgerRounds = 500

// stepSession steps run for rounds rounds and prints one row per round.
// With untilDepleted it keeps going, up to maxLedgerRounds, until three
// rounds past the ledger's first depletion, and prints only the first
// three rounds, rounds with events and rounds after the depletion.
func stepSession(w io.Writer, run *m2m.ScenarioRun, rounds int, untilDepleted bool) error {
	s := run.Session
	fmt.Fprintf(w, "%-5s %13s %5s %5s %5s %4s %4s %4s %5s %4s %5s %-7s %4s %5s %11s  %s\n",
		"round", "energy", "fresh", "stale", "starv", "dead", "quar", "lag", "edrop",
		"coll", "rate", "mode", "susp", "excis", "min resid", "events")
	limit := rounds
	if untilDepleted {
		limit = max(rounds, maxLedgerRounds)
	}
	scheduled := false
	stopAt := -1
	for r := 0; r < limit; r++ {
		step, err := s.Step()
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		events := ""
		if step.TDMA && !scheduled {
			scheduled = true
			events += fmt.Sprintf(" tdma frame installed (epoch %d)", s.PlanEpoch())
		}
		if step.Evacuations > 0 {
			events += fmt.Sprintf(" evacuated %v (epoch %d)", s.EvacuatedNodes(), s.PlanEpoch())
		}
		for _, n := range step.Depleted {
			events += fmt.Sprintf(" depleted %d", n)
		}
		for _, ev := range step.Excisions {
			events += fmt.Sprintf(" excised %d (residual %.1f, replan %d B, epoch %d)", ev.Node, ev.Residual, ev.ReplanBytes, s.PlanEpoch())
		}
		for _, n := range step.Readmissions {
			events += fmt.Sprintf(" readmitted %d (epoch %d)", n, s.PlanEpoch())
		}
		for _, ev := range step.Recoveries {
			events += fmt.Sprintf(" condemned %d (epoch %d)", ev.Dead, s.PlanEpoch())
		}
		for _, n := range step.Rejoins {
			events += fmt.Sprintf(" rejoined %d (epoch %d)", n, s.PlanEpoch())
		}
		if untilDepleted && stopAt < 0 && len(step.Depleted) > 0 {
			stopAt = r + 3
		}
		if !untilDepleted || events != "" || r < max(3, rounds) || stopAt >= 0 {
			mode, resid := "unsched", "-"
			if step.TDMA {
				mode = "tdma"
			}
			if run.Battery != nil {
				resid = fmt.Sprintf("%8.2f mJ", step.MinResidualJ*1e3)
			}
			fmt.Fprintf(w, "%-5d %10.2f mJ %5d %5d %5d %4d %4d %4d %5d %4d %5.2f %-7s %4d %5d %11s %s\n",
				r, step.EnergyJ*1e3, step.Fresh, step.Stale, step.Starved,
				len(s.DeadNodes()), step.Quarantined, step.EpochLag, step.EpochDropped,
				step.Collisions, step.CollisionRate, mode, len(step.Suspects), len(s.ExcisedNodes()),
				resid, events)
		}
		if stopAt >= 0 && r >= stopAt && r+1 >= rounds {
			break
		}
	}
	if b := run.Battery; b != nil {
		if first := b.FirstDeathRound(); first >= 0 {
			fmt.Fprintf(w, "first battery death: round %d (nodes %v)\n", first, b.DepletedNodes())
		} else {
			fmt.Fprintf(w, "no battery death within %d rounds\n", limit)
		}
	}
	for _, ev := range s.Excisions() {
		if ev.ReadmittedRound >= 0 {
			fmt.Fprintf(w, "excision: node %d at round %d, re-admitted at round %d\n", ev.Node, ev.Round, ev.ReadmittedRound)
		} else {
			fmt.Fprintf(w, "excision: node %d at round %d, still quarantined\n", ev.Node, ev.Round)
		}
	}
	return nil
}

// runChaos executes the optimal plan under the scenario's fault injector
// and prints per-round delivery outcomes: on the synchronous lossy engine,
// or on the event-driven one when the scenario has an async dimension.
func runChaos(w io.Writer, opt *m2m.Plan, net *m2m.Network, readings map[m2m.NodeID]float64, sc *m2m.Scenario, inj *m2m.FaultInjector) error {
	rounds := 1
	for _, c := range sc.Crashes {
		rounds = c.Round + 2 // watch at least one round past the crash
	}
	eng, err := sim.NewEngine(opt, net.Radio, sim.Options{MergeMessages: true})
	if err != nil {
		return err
	}
	const retries = 3
	cols := fmt.Sprintf("%-6s %14s %8s %8s %8s %7s %7s %7s", "round", "energy", "tx", "retries", "dropped", "fresh", "stale", "starved")
	var runner *sim.AsyncRunner
	if a := sc.Async; a != nil {
		rounds = max(rounds, 3) // give the per-link RTT estimators rounds to adapt
		if runner, err = sim.NewAsyncRunner(eng, sim.AsyncConfig{MaxRetries: retries, DeadlineMS: a.DeadlineMS}); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nasync fault injection (seed %d, loss %.3f, jitter %.0fms, dup %.2f, deadline %.0fms, %d retries):\n%s %9s %5s %9s\n",
			sc.FaultSeed, sc.Loss, a.JitterMS, a.DupProb, a.DeadlineMS, retries, cols, "makespan", "dups", "deadlined")
	} else {
		fmt.Fprintf(w, "\nfault injection (seed %d, loss %.3f, %d retries):\n%s\n", sc.FaultSeed, sc.Loss, retries, cols)
	}
	for r := 0; r < rounds; r++ {
		res := &sim.AsyncResult{}
		if runner != nil {
			res, err = runner.Run(r, readings, inj)
		} else {
			var lr *sim.LossyResult
			if lr, err = eng.RunLossy(r, readings, inj, retries); err == nil {
				res.LossyResult = *lr
			}
		}
		if err != nil {
			return err
		}
		fresh, stale, starved := countReports(res.Reports)
		fmt.Fprintf(w, "%-6d %11.2f mJ %8d %8d %8d %7d %7d %7d", r, res.EnergyJ*1e3, res.Transmissions, res.Retries, res.Dropped, fresh, stale, starved)
		if runner != nil {
			fmt.Fprintf(w, " %7.0fms %5d %9d", res.MakespanMS, res.DupCopies, res.DeadlineClosed)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runScenario replays a fuzz scenario, named by seed or by repro file,
// end to end: it prints the scenario's composition, steps the resilient
// session it describes, and reports the invariant checker verdict — the
// one-command repro for anything m2mfuzz finds.
func runScenario(w io.Writer, arg string) error {
	var sc *m2m.Scenario
	if seed, err := strconv.ParseInt(arg, 10, 64); err == nil {
		if sc, err = m2m.GenerateScenario(seed); err != nil {
			return usageError{fmt.Errorf("generating scenario %d: %w", seed, err)}
		}
	} else {
		data, err := os.ReadFile(arg)
		if err != nil {
			return usageError{err}
		}
		if sc, err = m2m.DecodeScenario(data); err != nil {
			return usageError{err}
		}
	}
	fmt.Fprintf(w, "scenario %s\n", sc.String())
	run, err := m2m.NewScenarioRun(sc)
	if err != nil {
		return usageError{fmt.Errorf("building scenario run: %w", err)}
	}
	if err := stepSession(w, run, sc.Rounds, false); err != nil {
		fmt.Fprintf(w, "session stopped: %v\n", err)
	}
	rep := invariant.Check(sc)
	fmt.Fprintln(w, rep.String())
	if rep.Failed() {
		return errors.New("invariant violations")
	}
	return nil
}

// parseFile parses the named file with parse.
func parseFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return parse(f)
}

// fixedReadings replays the same per-node readings every round, matching
// the single-round algorithm comparison.
type fixedReadings map[m2m.NodeID]float64

func (f fixedReadings) Next() map[m2m.NodeID]float64 { return f }

func countReports(reports map[m2m.NodeID]*sim.DeliveryReport) (fresh, stale, starved int) {
	for _, rep := range reports {
		switch {
		case rep.Starved:
			starved++
		case rep.Fresh:
			fresh++
		default:
			stale++
		}
	}
	return
}

func printValues(w io.Writer, vals map[m2m.NodeID]float64) {
	ids := make([]m2m.NodeID, 0, len(vals))
	for d := range vals {
		ids = append(ids, d)
	}
	slices.Sort(ids)
	fmt.Fprintln(w, "destination values:")
	for _, d := range ids {
		fmt.Fprintf(w, "  node %3d: %.4f\n", d, vals[d])
	}
}
