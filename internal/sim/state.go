package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
)

// RoundState is the recyclable scratch of one compiled round: the raw
// value slots, the partial record arena, the two assembly buffers, and a
// reusable result. A state belongs to at most one in-flight round at a
// time; Engine.Run recycles states through an internal sync.Pool, so
// steady-state execution performs no per-round heap allocations.
type RoundState struct {
	raw   []float64 // raw value slots
	arena []float64 // partial record arena (record slots side by side)
	tmp   []float64 // record assembly accumulator
	tmp2  []float64 // pre-aggregation operand buffer
	res   RoundResult
}

// NewRoundState returns a fresh scratch sized for the compiled program.
// States are program-specific: any engine bound to the program may use
// one, an engine of another program may not.
func (p *Program) NewRoundState() *RoundState {
	c := p.prog
	return &RoundState{
		raw:   make([]float64, c.nRaw),
		arena: make([]float64, c.arena),
		tmp:   make([]float64, c.maxRec),
		tmp2:  make([]float64, c.maxRec),
		res:   RoundResult{Values: make(map[graph.NodeID]float64, len(c.finals))},
	}
}

func (p *Program) getState() *RoundState   { return p.pool.Get().(*RoundState) }
func (p *Program) putState(st *RoundState) { p.pool.Put(st) }

// assembleInto replays one compiled operand list into tmp: the first
// operand is written, the rest folded with the function's merge — the
// exact sequence (and therefore the exact floats) of the reference
// executor's assembleRecord. Presence was proven at compile time, so
// there are no runtime checks.
func assembleInto(fn agg.Func, ip agg.InPlace, inputs []unitInput, st *RoundState, c *compiled, tmp agg.Record) {
	for i, in := range inputs {
		if in.kind == inRec {
			rec := st.arena[c.recOff[in.slot] : c.recOff[in.slot]+c.recLen[in.slot]]
			if i == 0 {
				copy(tmp, rec)
			} else if ip != nil {
				ip.MergeInto(tmp, rec)
			} else {
				copy(tmp, fn.Merge(tmp, rec))
			}
			continue
		}
		v := st.raw[in.slot]
		if i == 0 {
			if ip != nil {
				ip.PreAggInto(tmp, in.source, v)
			} else {
				copy(tmp, fn.PreAgg(in.source, v))
			}
			continue
		}
		op := st.tmp2[:len(tmp)]
		if ip != nil {
			ip.PreAggInto(op, in.source, v)
			ip.MergeInto(tmp, op)
		} else {
			copy(op, fn.PreAgg(in.source, v))
			copy(tmp, fn.Merge(tmp, op))
		}
	}
}

// runCompiled executes one round of the compiled program over st, writing
// each destination's aggregate into values. With a nil observer it is
// allocation-free.
func (e *Engine) runCompiled(round int, readings map[graph.NodeID]float64, st *RoundState, values map[graph.NodeID]float64, obs Observer) {
	c := e.prog
	if adv := e.adversary; adv != nil {
		// Corruption happens here, at the source's own fill slot, so every
		// downstream forward and merge carries the poisoned value.
		for i, slot := range c.srcSlot {
			id := c.srcIDs[i]
			st.raw[slot] = adv.CorruptReading(round, id, readings[id])
		}
	} else {
		for i, slot := range c.srcSlot {
			st.raw[slot] = readings[c.srcIDs[i]]
		}
	}
	for _, idx := range e.order {
		op := &c.ops[idx]
		if op.kind == plan.UnitRaw {
			v := st.raw[op.from]
			st.raw[op.to] = v
			if obs != nil {
				obs(e.units[idx], v, nil)
			}
			continue
		}
		tmp := st.tmp[:op.fnLen]
		assembleInto(op.fn, op.ip, op.inputs, st, c, tmp)
		if obs != nil {
			obs(e.units[idx], 0, append(agg.Record(nil), tmp...))
		}
		out := st.arena[c.recOff[op.out] : c.recOff[op.out]+op.fnLen]
		if !op.outMerge {
			copy(out, tmp)
		} else if op.ip != nil {
			op.ip.MergeInto(out, tmp)
		} else {
			copy(out, op.fn.Merge(out, tmp))
		}
	}
	for i := range c.finals {
		fo := &c.finals[i]
		tmp := st.tmp[:fo.fnLen]
		assembleInto(fo.fn, fo.ip, fo.inputs, st, c, tmp)
		values[fo.dest] = fo.fn.Eval(tmp)
	}
}

// fillResult stamps the engine's precomputed round constants into res.
func (p *Program) fillResult(res *RoundResult) {
	res.EnergyJ = p.energyJ
	res.Messages = len(p.messages)
	res.Units = len(p.units)
	res.BodyBytes = p.bodyBytes
	res.OnAirBytes = p.bodyBytes + len(p.messages)*p.Radio.HeaderBytes
	res.PerNodeJ = p.perNodeJ
}

// RunInto executes one round into the caller-held state and returns its
// embedded result. The result — including its Values map — is owned by
// st and overwritten by the next RunInto on the same state: callers that
// keep a value across rounds must copy it. Steady-state RunInto performs
// zero heap allocations.
func (e *Engine) RunInto(readings map[graph.NodeID]float64, st *RoundState) (*RoundResult, error) {
	e.runCompiled(e.nextAdvRound(), readings, st, st.res.Values, nil)
	e.fillResult(&st.res)
	e.drainStatic()
	return &st.res, nil
}

// RunConcurrent executes len(batch) independent rounds over the shared
// compiled program with a pool of worker goroutines (workers <= 0 selects
// GOMAXPROCS). The program is immutable after Compile, so rounds only
// touch per-worker RoundStates; results[i] is batch[i]'s round, each with
// its own freshly allocated Values map.
//
// Cancellation is cooperative between rounds: once ctx is done the
// workers stop claiming new batch entries (the round in flight on each
// worker completes) and RunConcurrent returns ctx.Err() instead of
// results. With context.Background() the behavior — and every computed
// byte — is identical to the pre-context API.
func (e *Engine) RunConcurrent(ctx context.Context, batch []map[graph.NodeID]float64, workers int) ([]*RoundResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(batch) {
		workers = len(batch)
	}
	results := make([]*RoundResult, len(batch))
	if len(batch) == 0 {
		return results, nil
	}
	// The whole batch claims a contiguous block of adversary rounds, so
	// batch[i] executes as round base+i however the workers interleave.
	base := e.reserveAdvRounds(len(batch))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := e.getState()
			defer e.putState(st)
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				res := &RoundResult{Values: make(map[graph.NodeID]float64, len(e.prog.finals))}
				e.runCompiled(base+i, batch[i], st, res.Values, nil)
				e.fillResult(res)
				e.drainStatic()
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// lossyState is the recyclable scratch of the lossy and asynchronous
// executors. Under faults slot occupancy is a runtime property, so raw
// slots carry presence flags, and a record slot is the list of its
// delivered contributions, ascending by planned message index. Payload
// snapshots live in the per-round pay/payCov arenas and are referenced by
// offset, so contributions hold no pointers.
type lossyState struct {
	raw      []float64
	rawSet   []bool
	contribs [][]contrib // per record slot, ascending by message index
	pay      []float64   // record payload arena, reset per round
	payCov   []uint64    // coverage bitsets of pay's records
	tmp      []float64
	tmp2     []float64
	tmp3     []float64 // contribution-fold buffer
	covTmp   []uint64
	attempt  []int32      // per message-edge ARQ attempt sequence
	edgeOK   []bool       // per message-edge epoch fence (true = epochs match)
	raws     []carriedRaw // payload snapshot scratch
	recs     []carriedRec
}

func (p *Program) newLossyState() *lossyState {
	c := p.prog
	return &lossyState{
		raw:      make([]float64, c.nRaw),
		rawSet:   make([]bool, c.nRaw),
		contribs: make([][]contrib, c.nRec),
		tmp:      make([]float64, c.maxRec),
		tmp2:     make([]float64, c.maxRec),
		tmp3:     make([]float64, c.maxRec),
		covTmp:   make([]uint64, c.covWords),
		attempt:  make([]int32, c.nMsgEdges),
		edgeOK:   make([]bool, c.nMsgEdges),
	}
}

func (p *Program) getLossyState() *lossyState {
	st := p.lossyPool.Get().(*lossyState)
	for i := range st.rawSet {
		st.rawSet[i] = false
	}
	for i := range st.contribs {
		st.contribs[i] = st.contribs[i][:0]
	}
	for i := range st.attempt {
		st.attempt[i] = 0
	}
	for i := range st.edgeOK {
		st.edgeOK[i] = true
	}
	st.pay = st.pay[:0]
	st.payCov = st.payCov[:0]
	st.raws = st.raws[:0]
	st.recs = st.recs[:0]
	return st
}

// fillEdgeFence evaluates the engine's epoch fence over the interned
// message edges: an edge is open only when neither endpoint lags. With
// no lagging node every edge stays open (getLossyState reset the flags
// true), so the fence costs nothing when unused.
func (e *Engine) fillEdgeFence(st *lossyState) {
	if len(e.lagging) == 0 {
		return
	}
	c := e.prog
	for i := 0; i < c.nMsgEdges; i++ {
		st.edgeOK[i] = !e.lagging[c.edgeFrom[i]] && !e.lagging[c.edgeTo[i]]
	}
}

func (p *Program) putLossyState(st *lossyState) { p.lossyPool.Put(st) }

// mergeRecInto folds src into dst with fn's in-place extension when it has
// one, reproducing dst = fn.Merge(dst, src) bit for bit either way.
func mergeRecInto(fn agg.Func, ip agg.InPlace, dst, src agg.Record) {
	if ip != nil {
		ip.MergeInto(dst, src)
	} else {
		copy(dst, fn.Merge(dst, src))
	}
}
