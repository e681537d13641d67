package sim

import (
	"fmt"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/routing"
)

// Faults is the fault schedule the lossy and async executors query while
// a round runs (chaos.Injector implements it). Both methods must be
// deterministic in their arguments so repeated rounds are reproducible.
// A schedule says only what the world does to the network; what the
// network itself knows — its battery ledger and which nodes still run an
// older plan epoch (Engine.SetFence) — is engine state, and the executors
// gate on both themselves.
type Faults interface {
	// NodeDead reports whether n has permanently crashed by the given
	// round. A dead node neither transmits, receives, nor samples.
	NodeDead(round int, n graph.NodeID) bool
	// Deliver reports whether the attempt-th transmission of the round on
	// e is heard by e.To (liveness of the endpoints is gated separately).
	Deliver(round int, e routing.Edge, attempt int) bool
}

// noFaults is the identity schedule: every transmission arrives.
type noFaults struct{}

func (noFaults) NodeDead(int, graph.NodeID) bool     { return false }
func (noFaults) Deliver(int, routing.Edge, int) bool { return true }

// DeliveryReport describes how well one destination was served by a lossy
// round: exactly (fresh), over partial source coverage (stale), or not at
// all (starved).
type DeliveryReport struct {
	// Dest is the destination node.
	Dest graph.NodeID
	// Fresh is true when every source of f_d reached the destination and
	// the reported value is exact.
	Fresh bool
	// Covered lists the sources whose readings made it into the value,
	// ascending. Missing lists the rest.
	Covered []graph.NodeID
	Missing []graph.NodeID
	// Starved is true when no source reached the destination at all (no
	// value was produced this round).
	Starved bool
	// DestDead is true when the destination itself has crashed; such a
	// destination is also reported as starved.
	DestDead bool

	// The remaining fields are filled by the asynchronous executor (and,
	// for AgeRounds, by sessions that keep a last-known-value cache); the
	// synchronous executors leave them zero.

	// ClosedAtMS is the simulated time at which the destination's round
	// closed: when its last input resolved, or at the deadline.
	ClosedAtMS float64
	// DeadlineHit is true when the round's deadline forced the close while
	// inputs were still unresolved — the graceful-degradation path. A
	// deadline-hit destination is never fresh.
	DeadlineHit bool
	// AgeRounds is how many rounds have passed since this destination was
	// last served fresh (0 when fresh this round).
	AgeRounds int
	// LastKnown is the most recent exact value the last-known-value cache
	// holds for this destination; HasLastKnown guards it. A starved or
	// stale destination's consumer can fall back on it, aged by AgeRounds.
	LastKnown    float64
	HasLastKnown bool
}

// Validate checks the report's internal invariants: Covered and Missing
// are ascending and disjoint, the freshness flags are mutually consistent,
// and the staleness fields are sane. Executors must only ever produce
// reports that pass; tests assert it on every report they see.
func (r *DeliveryReport) Validate() error {
	for i := 1; i < len(r.Covered); i++ {
		if r.Covered[i-1] >= r.Covered[i] {
			t := "unsorted"
			if r.Covered[i-1] == r.Covered[i] {
				t = "duplicate"
			}
			return fmt.Errorf("sim: report for %d: %s Covered at %d", r.Dest, t, i)
		}
	}
	for i := 1; i < len(r.Missing); i++ {
		if r.Missing[i-1] >= r.Missing[i] {
			t := "unsorted"
			if r.Missing[i-1] == r.Missing[i] {
				t = "duplicate"
			}
			return fmt.Errorf("sim: report for %d: %s Missing at %d", r.Dest, t, i)
		}
	}
	miss := make(map[graph.NodeID]bool, len(r.Missing))
	for _, s := range r.Missing {
		miss[s] = true
	}
	for _, s := range r.Covered {
		if miss[s] {
			return fmt.Errorf("sim: report for %d: source %d both covered and missing", r.Dest, s)
		}
	}
	switch {
	case r.Fresh && r.Starved:
		return fmt.Errorf("sim: report for %d both fresh and starved", r.Dest)
	case r.Fresh && len(r.Missing) > 0:
		return fmt.Errorf("sim: fresh report for %d misses %d sources", r.Dest, len(r.Missing))
	case r.Starved && len(r.Covered) > 0:
		return fmt.Errorf("sim: starved report for %d covers %d sources", r.Dest, len(r.Covered))
	case r.DestDead && !r.Starved:
		return fmt.Errorf("sim: dead destination %d not starved", r.Dest)
	case r.DeadlineHit && r.Fresh:
		return fmt.Errorf("sim: report for %d both deadline-hit and fresh", r.Dest)
	case r.AgeRounds < 0:
		return fmt.Errorf("sim: report for %d has negative staleness age %d", r.Dest, r.AgeRounds)
	case r.Fresh && r.AgeRounds != 0:
		return fmt.Errorf("sim: fresh report for %d aged %d rounds", r.Dest, r.AgeRounds)
	case r.ClosedAtMS < 0:
		return fmt.Errorf("sim: report for %d closed at negative time %v", r.Dest, r.ClosedAtMS)
	}
	return nil
}

// carriedRaw and carriedRec are a message's payload snapshot: the raw
// values and partial records available at the sender when the message
// (first) transmits. slot is the compiled slot the payload lands in at the
// receiver; a record's n values sit at pay[off:] and its covered sources,
// a dense bitset over the compiled source order, at payCov[cov:].
type carriedRaw struct {
	slot int32
	val  float64
}

type carriedRec struct {
	slot, off, n, cov int32
}

// contrib is one delivered partial record at a record slot, tagged with
// the planned index of the message that carried it.
type contrib struct {
	msg int32
	rec carriedRec
}

// EdgeOutcome is the observable fate of one planned message: how many
// times its sender transmitted, whether it ultimately arrived, and the
// payload it carried. Attempts == 0 means the sender never transmitted at
// all — under the keep-alive convention only a dead sender is silent, so
// silence implicates the tail while exhausted retries implicate the head.
type EdgeOutcome struct {
	Edge      routing.Edge
	Attempts  int
	Delivered bool
	BodyBytes int
}

// LossyResult reports one round executed under a fault schedule.
type LossyResult struct {
	// Values holds the computed aggregate of every destination that
	// received at least one source (exact only where Reports[d].Fresh).
	Values map[graph.NodeID]float64
	// Reports holds the per-destination delivery report.
	Reports map[graph.NodeID]*DeliveryReport
	// Outcomes lists every planned message's fate, in transmission order.
	Outcomes []EdgeOutcome
	// EnergyJ is the round's total radio energy, including every failed
	// retransmission.
	EnergyJ float64
	// PerNodeJ is each node's share (TX at senders per attempt, RX at the
	// receiver of the successful attempt). Treat as read-only.
	PerNodeJ map[graph.NodeID]float64
	// Messages is the number of planned messages; Transmissions counts
	// physical attempts (≥ delivered messages), Retries the extra
	// attempts beyond the first, and Dropped the planned messages that
	// never arrived.
	Messages      int
	Transmissions int
	Retries       int
	Dropped       int
	// EpochDropped counts heard transmissions the receiver discarded
	// because the frame's plan epoch mismatched its installed table (each
	// also leaves its message in Dropped if no attempt ever passes).
	EpochDropped int
	// Collisions counts transmission attempts destroyed by slot
	// contention (collision model only): the wreck cost the sender TX and
	// a live receiver RX, but nothing was merged or acknowledged.
	Collisions int
}

// RunLossy executes one round in which messages actually drop: each
// planned message is transmitted under stop-and-wait ARQ with at most
// maxRetries retransmissions, every attempt is charged to the sender, and
// only delivered payloads propagate. A node with nothing to forward still
// sends its planned message empty (a header-only keep-alive), so the only
// silent senders are dead ones — the property failure detectors rely on.
// Partial aggregates cover whatever sources arrived; the per-destination
// reports say which values are exact, partial, or missing.
//
// With a nil or fault-free schedule the round is byte-identical to Run:
// same values, same total and per-node energy.
//
// With a battery ledger attached (Options.Battery) every attempt debits
// the sender's TX and every heard frame the receiver's RX. A node that
// cannot afford a debit browns out mid-round: a browned-out sender
// abandons its remaining retries (silence — the same signature as a
// crash, which is what failure detectors key on), and a browned-out
// receiver stops hearing. Nodes already depleted at round start are
// gated exactly like dead ones.
func (e *Engine) RunLossy(round int, readings map[graph.NodeID]float64, faults Faults, maxRetries int) (*LossyResult, error) {
	if maxRetries < 0 {
		return nil, fmt.Errorf("sim: negative retry budget %d", maxRetries)
	}
	res := &LossyResult{}
	var r lossyRound
	if err := e.beginLossy(&r, round, readings, faults, maxRetries, res); err != nil {
		return nil, err
	}
	defer r.end()
	st := r.st
	for mi, msg := range e.messages {
		edge := e.units[msg[0]].Edge
		if r.down(edge.From) {
			// Dead or depleted sender: silence, no energy anywhere.
			r.settle(edge, 0, 0, 0, false)
			continue
		}
		raws, recs, body := r.snapshot(mi, st.raws[:0], st.recs[:0])
		st.raws, st.recs = raws, recs

		// Stop-and-wait: transmit until delivered or the budget runs out.
		// Under a collision schedule the budget is the oracle's resolved
		// attempts, replayed one-for-one. A lost attempt costs the sender
		// TX; the receiver pays RX only for the frames it hears. An
		// epoch-fenced edge never delivers: the receiver hears the frame,
		// pays RX, and discards it without acknowledging, so the sender
		// burns its whole budget.
		tries := maxRetries + 1
		if r.cp != nil {
			tries = len(r.cp.tries[mi])
		}
		fenced := !st.edgeOK[e.prog.msgEdge[mi]]
		attempts, rx, delivered := 0, 0, false
		for try := 0; try < tries; try++ {
			if !r.transmit(edge.From, body) {
				break // sender browned out mid-ARQ: remaining retries abandoned
			}
			attempts++
			oc, _ := r.fate(mi, try, edge)
			if oc == coLost || !r.hear(edge.To, body) {
				continue
			}
			// Heard and paid for: a wreck then fails its checksum, a
			// fenced frame is discarded.
			rx++
			if oc == coCollided {
				continue
			}
			if fenced {
				res.EpochDropped++
				continue
			}
			delivered = true
			break
		}
		if delivered {
			r.deliver(mi, raws, recs)
		}
		r.settle(edge, attempts, rx, body, delivered)
	}

	// Final per-destination merge and delivery report; a destination
	// is judged dead as of the round's end.
	for fi := range e.prog.finals {
		r.report(fi, r.down(e.prog.finals[fi].dest))
	}
	return res, nil
}

// lossyRound is the core both lossy executors share: one round's fault
// schedule, scratch, resolved contention, and result books. RunLossy and
// AsyncRunner.Run differ only in when attempts happen (planned order
// versus an event clock); what an attempt costs, whether it arrives, how
// a delivered payload folds, and how a destination is reported all live
// here, so the two executors agree by construction.
type lossyRound struct {
	e      *Engine
	c      *compiled
	round  int
	faults Faults
	bat    *Battery
	st     *lossyState
	cp     *collisionPlan // nil unless the schedule enables collisions
	res    *LossyResult
}

// beginLossy starts a round: it takes pooled scratch, evaluates the
// engine's epoch fence, resolves the round's contention, samples every
// live source through the adversary, and initializes res. A successful
// begin must be paired with end.
func (e *Engine) beginLossy(r *lossyRound, round int, readings map[graph.NodeID]float64, faults Faults, maxRetries int, res *LossyResult) error {
	if faults == nil {
		faults = noFaults{}
	}
	c := e.prog
	*r = lossyRound{e: e, c: c, round: round, faults: faults, bat: e.battery, st: e.getLossyState(), res: res}
	e.fillEdgeFence(r.st)
	cp, err := r.collisionPlan(maxRetries)
	if err != nil {
		r.end()
		return err
	}
	r.cp = cp
	adv := e.adversaryFor(faults)
	for i, slot := range c.srcSlot {
		id := c.srcIDs[i]
		if r.down(id) {
			continue
		}
		v := readings[id]
		if adv != nil {
			v = adv.CorruptReading(round, id, v)
		}
		r.st.raw[slot] = v
		r.st.rawSet[slot] = true
	}
	res.Values = make(map[graph.NodeID]float64, len(c.finals))
	res.Reports = make(map[graph.NodeID]*DeliveryReport, len(c.finals))
	res.Outcomes = make([]EdgeOutcome, 0, len(e.messages))
	res.PerNodeJ = make(map[graph.NodeID]float64)
	res.Messages = len(e.messages)
	return nil
}

// end returns the round's scratch to the pool.
func (r *lossyRound) end() { r.e.putLossyState(r.st) }

// down reports whether n is crashed or depleted.
func (r *lossyRound) down(n graph.NodeID) bool {
	return r.faults.NodeDead(r.round, n) || (r.bat != nil && r.bat.Depleted(n))
}

// snapshot appends message mi's payload — the units whose content is
// available at the sender now — to raws and recs, and returns them with
// the body size. Records are copied into the payload arena, so every
// retransmission carries the same bytes whatever arrives later.
func (r *lossyRound) snapshot(mi int, raws []carriedRaw, recs []carriedRec) ([]carriedRaw, []carriedRec, int) {
	c, st := r.c, r.st
	body := 0
	for _, ui := range r.e.messages[mi] {
		op := &c.ops[ui]
		if op.kind == plan.UnitRaw {
			if st.rawSet[op.from] {
				raws = append(raws, carriedRaw{slot: op.to, val: st.raw[op.from]})
				body += int(c.unitBytes[ui])
			}
			continue
		}
		tmp := st.tmp[:op.fnLen]
		if r.assemble(op.fn, op.ip, op.inputs, tmp) {
			recs = append(recs, carriedRec{slot: op.out, off: int32(len(st.pay)), n: int32(len(tmp)), cov: int32(len(st.payCov))})
			st.pay = append(st.pay, tmp...)
			st.payCov = append(st.payCov, st.covTmp...)
			body += int(c.unitBytes[ui])
		}
	}
	return raws, recs, body
}

// transmit debits one attempt's TX at the sender; false means the sender
// browned out and the attempt never happened.
func (r *lossyRound) transmit(from graph.NodeID, body int) bool {
	return r.bat == nil || r.bat.Spend(r.round, from, r.e.Radio.TxJoules(body))
}

// hear reports whether a live receiver hears one frame, debiting its RX;
// a receiver that cannot pay browns out and hears nothing.
func (r *lossyRound) hear(to graph.NodeID, body int) bool {
	return !r.down(to) && (r.bat == nil || r.bat.Spend(r.round, to, r.e.Radio.RxJoules(body)))
}

// fate resolves the try-th attempt of message mi on edge and returns its
// channel outcome with the edge's wire attempt sequence. Under a collision
// schedule it replays the oracle (which already drew loss and gated
// round-start liveness) and counts collisions; otherwise it draws Deliver.
// Receiver liveness and the battery are left to hear.
func (r *lossyRound) fate(mi, try int, edge routing.Edge) (byte, int) {
	eid := r.c.msgEdge[mi]
	seq := int(r.st.attempt[eid])
	r.st.attempt[eid]++
	switch {
	case r.cp != nil:
		oc := r.cp.outcome(mi, try)
		if oc == coCollided {
			r.res.Collisions++
		}
		return oc, seq
	case r.faults.Deliver(r.round, edge, seq):
		return coDelivered, seq
	}
	return coLost, seq
}

// deliver merges message mi's payload at the receiver. A record slot's
// contributions stay ascending by planned message index, so folds replay
// the synchronous merge order whatever order the arrivals came in.
func (r *lossyRound) deliver(mi int, raws []carriedRaw, recs []carriedRec) {
	st := r.st
	for _, cr := range raws {
		st.raw[cr.slot] = cr.val
		st.rawSet[cr.slot] = true
	}
	nc := contrib{msg: int32(mi)}
	for _, cr := range recs {
		nc.rec = cr
		cs := append(st.contribs[cr.slot], nc)
		i := len(cs) - 1
		for i > 0 && cs[i-1].msg > nc.msg {
			cs[i] = cs[i-1]
			i--
		}
		cs[i] = nc
		st.contribs[cr.slot] = cs
	}
}

// settle books one planned message: its outcome, and — when the sender
// transmitted — attempts·TX at the sender and rx·RX at the receiver for
// every frame it heard (wrecks, fenced and duplicate copies included). A
// clean unicast is priced as one, matching the fault-free engine.
func (r *lossyRound) settle(edge routing.Edge, attempts, rx, body int, delivered bool) {
	res := r.res
	res.Outcomes = append(res.Outcomes, EdgeOutcome{Edge: edge, Attempts: attempts, Delivered: delivered, BodyBytes: body})
	if !delivered {
		res.Dropped++
	}
	if attempts == 0 {
		return
	}
	res.Transmissions += attempts
	res.Retries += attempts - 1
	m := r.e.Radio
	txJ, rxJ := m.TxJoules(body), m.RxJoules(body)
	if delivered && attempts == 1 && rx == 1 {
		res.EnergyJ += m.UnicastJoules(body)
	} else {
		res.EnergyJ += float64(attempts) * txJ
		res.EnergyJ += float64(rx) * rxJ
	}
	res.PerNodeJ[edge.From] += float64(attempts) * txJ
	if rx > 0 {
		res.PerNodeJ[edge.To] += float64(rx) * rxJ
	}
}

// report writes final fi's delivery report and, when anything arrived,
// its value. The caller decides whether the destination is dead. finals
// follow Dests() order and each source list is ascending, so the
// covered/missing splits come out sorted without a sort.
func (r *lossyRound) report(fi int, dead bool) *DeliveryReport {
	fo := &r.c.finals[fi]
	rep := &DeliveryReport{Dest: fo.dest}
	r.res.Reports[fo.dest] = rep
	if dead {
		rep.DestDead = true
		rep.Starved = true
		rep.Missing = append([]graph.NodeID(nil), fo.sources...)
		return rep
	}
	tmp := r.st.tmp[:fo.fnLen]
	got := r.assemble(fo.fn, fo.ip, fo.inputs, tmp)
	for j, s := range fo.sources {
		if covHasBit(r.st.covTmp, fo.srcBits[j]) {
			rep.Covered = append(rep.Covered, s)
		} else {
			rep.Missing = append(rep.Missing, s)
		}
	}
	if !got {
		rep.Starved = true
		return rep
	}
	rep.Fresh = len(rep.Missing) == 0
	r.res.Values[fo.dest] = fo.fn.Eval(tmp)
	return rep
}

// assemble replays one compiled operand list under partial delivery:
// absent operands are skipped, covered sources accumulate into covTmp,
// and a record slot's contributions are folded in their own buffer first
// and then merged in — the reference executor's exact association order,
// which keeps fault-free rounds byte-identical to Run. It reports whether
// anything was present.
func (r *lossyRound) assemble(fn agg.Func, ip agg.InPlace, inputs []unitInput, tmp agg.Record) bool {
	st, words := r.st, r.c.covWords
	covClear(st.covTmp)
	got := false
	for _, in := range inputs {
		if in.kind == inRec {
			cs := st.contribs[in.slot]
			if len(cs) == 0 {
				continue
			}
			rec := agg.Record(st.tmp3[:len(tmp)])
			for k, cc := range cs {
				src := st.pay[cc.rec.off : cc.rec.off+cc.rec.n]
				if k == 0 {
					copy(rec, src)
				} else {
					mergeRecInto(fn, ip, rec, src)
				}
				covOr(st.covTmp, st.payCov[cc.rec.cov:int(cc.rec.cov)+words])
			}
			if !got {
				got = true
				copy(tmp, rec)
			} else {
				mergeRecInto(fn, ip, tmp, rec)
			}
			continue
		}
		if !st.rawSet[in.slot] {
			continue
		}
		v := st.raw[in.slot]
		if !got {
			got = true
			if ip != nil {
				ip.PreAggInto(tmp, in.source, v)
			} else {
				copy(tmp, fn.PreAgg(in.source, v))
			}
		} else {
			op := agg.Record(st.tmp2[:len(tmp)])
			if ip != nil {
				ip.PreAggInto(op, in.source, v)
				ip.MergeInto(tmp, op)
			} else {
				copy(op, fn.PreAgg(in.source, v))
				copy(tmp, fn.Merge(tmp, op))
			}
		}
		covSetBit(st.covTmp, in.srcBit)
	}
	return got
}
