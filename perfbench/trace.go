package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"m2m"
	"m2m/internal/serve"
	"m2m/internal/sim"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. Every
// method is safe on a nil tracer, which records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs f inside a span.
func (t *tracer) call(name, req string, parent int, f func() error) error {
	id := t.begin(name, req, parent)
	err := f()
	t.end(id)
	return err
}

// snapshot returns the spans recorded since mark (an earlier len).
func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanSet indexes a batch of spans for per-name statistics and self time.
type spanSet struct {
	spans    []span
	children map[int][]int // span ID -> child indexes
}

func newSpanSet(spans []span) *spanSet {
	ss := &spanSet{spans: spans, children: map[int][]int{}}
	for i := range spans {
		if spans[i].Parent != 0 {
			ss.children[spans[i].Parent] = append(ss.children[spans[i].Parent], i)
		}
	}
	return ss
}

// durations returns the duration in µs of every span called name.
func (ss *spanSet) durations(name string) []float64 {
	var out []float64
	for i := range ss.spans {
		if ss.spans[i].Name == name {
			out = append(out, us(ss.spans[i].dur()))
		}
	}
	return out
}

// selfTimes returns, for every span called name, its duration minus the
// part of it covered by its child spans, in µs.
func (ss *spanSet) selfTimes(name string) []float64 {
	var out []float64
	for i := range ss.spans {
		sp := &ss.spans[i]
		if sp.Name != name {
			continue
		}
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, ci := range ss.children[sp.ID] {
			c := &ss.spans[ci]
			a, b := max(c.Start, sp.Start), min(c.End, sp.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, reach int64
		for _, v := range ivs {
			if v.a < reach {
				v.a = reach
			}
			if v.b > v.a {
				covered += v.b - v.a
				reach = v.b
			}
		}
		out = append(out, us(time.Duration(sp.End-sp.Start-covered)))
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// planLayers builds a plan through each layer's public function, one span
// per layer: topology, workload generation, routing instance, Optimize.
func planLayers(tr *tracer, req string, parent int, topo serve.TopologySpec, gs *serve.GenerateSpec) (*localPlan, error) {
	lp := &localPlan{}
	err := tr.call("topology.build", req, parent, func() (err error) {
		lp.net, err = buildNetwork(topo)
		return err
	})
	if err == nil {
		err = tr.call("workload.generate", req, parent, func() (err error) {
			lp.specs, err = lp.net.GenerateWorkload(workloadConfig(gs))
			return err
		})
	}
	if err == nil {
		err = tr.call("routing.instance", req, parent, func() (err error) {
			lp.inst, err = lp.net.NewInstance(lp.specs, m2m.RouterReversePath)
			return err
		})
	}
	if err == nil {
		err = tr.call("plan.optimize", req, parent, func() (err error) {
			lp.plan, err = m2m.Optimize(lp.inst)
			return err
		})
	}
	return lp, err
}

// compile builds the round program the way sessions and sweeps do.
func compile(tr *tracer, req string, parent int, lp *localPlan) (eng *sim.Engine, err error) {
	err = tr.call("sim.compile", req, parent, func() (err error) {
		eng, err = sim.NewEngine(lp.plan, lp.net.Radio, sim.Options{MergeMessages: true})
		return err
	})
	return eng, err
}
