package sim

import (
	"fmt"
	"sort"

	"m2m/internal/graph"
	"m2m/internal/routing"
)

// buildMessages groups units into physical messages. Units travelling the
// same edge are eligible for merging (Section 3); a merge is kept only if
// the message-level wait-for graph stays acyclic. The paper reports that
// the greedy merge collapses every edge to a single message in all its
// experiments; the all-at-once attempt below succeeds in exactly those
// cases and the pairwise fallback handles the rare cyclic ones.
func (p *Program) buildMessages(merge bool) {
	if !merge {
		p.messages = make([][]int, len(p.units))
		for i := range p.units {
			p.messages[i] = []int{i}
		}
		return
	}

	// Start from the ideal layout: one message per edge.
	byEdge := make(map[routing.Edge][]int)
	var edges []routing.Edge
	for i, u := range p.units {
		if len(byEdge[u.Edge]) == 0 {
			edges = append(edges, u.Edge)
		}
		byEdge[u.Edge] = append(byEdge[u.Edge], i)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})

	assign := make([]int, len(p.units)) // unit -> message id
	nMsgs := 0
	for _, eg := range edges {
		for _, ui := range byEdge[eg] {
			assign[ui] = nMsgs
		}
		nMsgs++
	}
	if p.messageGraphAcyclic(assign, nMsgs) {
		p.messages = messagesFromAssign(assign, nMsgs)
		return
	}

	// Fallback for the rare wait-for cycles (the paper: "such situations
	// seem to be quite rare"): locate the cyclic core of the merged
	// message graph, split exactly those edges back into per-unit
	// messages (always feasible — the unit-level graph is acyclic per
	// Theorem 2), then greedily re-merge pairs within just those edges.
	for iter := 0; ; iter++ {
		core := p.messageGraph(assign, nMsgs).CyclicCore()
		if len(core) == 0 {
			break
		}
		inCore := make(map[int]bool, len(core))
		for _, m := range core {
			inCore[m] = true
		}
		var brokenEdges []routing.Edge
		seenEdge := make(map[routing.Edge]bool)
		for ui, m := range assign {
			if inCore[m] && !seenEdge[p.units[ui].Edge] {
				seenEdge[p.units[ui].Edge] = true
				brokenEdges = append(brokenEdges, p.units[ui].Edge)
			}
		}
		for _, eg := range brokenEdges {
			for _, ui := range byEdge[eg] {
				assign[ui] = nMsgs
				nMsgs++
			}
		}
		if !p.messageGraphAcyclic(assign, nMsgs) {
			if iter > len(p.units) {
				panic("sim: merge fallback failed to converge") // unreachable: fully split is acyclic
			}
			continue
		}
		// Re-merge greedily within the broken edges only: accumulate each
		// unit into the current message unless a path between the two
		// messages (necessarily through other messages — units of one edge
		// never depend on each other) would close a cycle.
		for _, eg := range brokenEdges {
			uis := byEdge[eg]
			mg := p.messageGraph(assign, nMsgs)
			cur := assign[uis[0]]
			for _, ui := range uis[1:] {
				b := assign[ui]
				if b == cur {
					continue
				}
				if mg.Reaches(cur, b) || mg.Reaches(b, cur) {
					cur = b // start a new message from here
					continue
				}
				assign[ui] = cur
				mg = p.messageGraph(assign, nMsgs)
			}
		}
		if !p.messageGraphAcyclic(assign, nMsgs) {
			panic("sim: merge fallback produced a cyclic layout") // unreachable
		}
		break
	}
	// Compact message ids.
	remap := make(map[int]int)
	for _, m := range assign {
		if _, ok := remap[m]; !ok {
			remap[m] = len(remap)
		}
	}
	for ui, m := range assign {
		assign[ui] = remap[m]
	}
	p.messages = messagesFromAssign(assign, len(remap))
}

// orderMessages sorts e.messages into a deterministic topological order of
// the message wait-for DAG and rebuilds e.order message-contiguously:
// every message's units appear consecutively (ascending unit index), and a
// message appears only after every message it waits for. Units of one edge
// never depend on each other, so the flattening is a valid unit order; Run
// and RunLossy share it, which is what makes a fault-free lossy round
// byte-identical to a plain one.
func (p *Program) orderMessages() error {
	n := len(p.messages)
	unitMsg := make([]int, len(p.units))
	for m, uis := range p.messages {
		for _, ui := range uis {
			unitMsg[ui] = m
		}
	}
	indeg := make([]int, n)
	adj := make([][]int, n)
	for u, ds := range p.deps {
		for _, dep := range ds {
			if unitMsg[dep] != unitMsg[u] {
				adj[unitMsg[dep]] = append(adj[unitMsg[dep]], unitMsg[u])
				indeg[unitMsg[u]]++
			}
		}
	}
	// Kahn's algorithm, always picking the ready message whose first unit
	// has the smallest index, for a stable order.
	var ready []int
	for m := 0; m < n; m++ {
		if indeg[m] == 0 {
			ready = append(ready, m)
		}
	}
	perm := make([]int, 0, n)
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			if p.messages[ready[i]][0] < p.messages[ready[best]][0] {
				best = i
			}
		}
		m := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		perm = append(perm, m)
		for _, next := range adj[m] {
			indeg[next]--
			if indeg[next] == 0 {
				ready = append(ready, next)
			}
		}
	}
	if len(perm) != n {
		return fmt.Errorf("sim: message wait-for cycle survived merging")
	}
	msgs := make([][]int, 0, n)
	order := make([]int, 0, len(p.units))
	for _, m := range perm {
		msgs = append(msgs, p.messages[m])
		order = append(order, p.messages[m]...)
	}
	p.messages = msgs
	p.order = order
	return nil
}

// messageGraph lifts the unit wait-for relation onto messages. Self-arcs
// cannot arise (no unit depends on a unit of its own edge) but are
// skipped defensively.
func (p *Program) messageGraph(assign []int, nMsgs int) *graph.Digraph {
	d := graph.NewDigraph(nMsgs)
	for u, ds := range p.deps {
		for _, dep := range ds {
			if assign[dep] != assign[u] {
				d.AddArc(assign[dep], assign[u])
			}
		}
	}
	return d
}

// messageGraphAcyclic checks whether the message-level wait-for relation
// is a DAG.
func (p *Program) messageGraphAcyclic(assign []int, nMsgs int) bool {
	return !p.messageGraph(assign, nMsgs).HasCycle()
}

func messagesFromAssign(assign []int, nMsgs int) [][]int {
	out := make([][]int, nMsgs)
	for ui, m := range assign {
		out[m] = append(out[m], ui)
	}
	// Drop empty slots (possible after compaction of sparse ids).
	var msgs [][]int
	for _, m := range out {
		if len(m) > 0 {
			msgs = append(msgs, m)
		}
	}
	return msgs
}
