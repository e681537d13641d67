// Package plan implements the paper's many-to-many aggregation optimizer:
// it reduces each directed multicast edge to a weighted bipartite vertex
// cover (Section 2.2), assembles the independently solved edges into a
// consistent global plan (Section 2.3, Theorem 1), builds the four
// per-node runtime tables (Section 3), and supports incremental
// re-optimization when the workload changes (Corollary 1).
package plan

import (
	"fmt"
	"slices"
	"sort"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/routing"
)

// Pair is one producer→consumer relationship: Source ∼ Dest.
type Pair struct {
	Source, Dest graph.NodeID
}

// Instance is a fully resolved optimization input: the workload plus the
// canonical route of every pair and, per directed edge, the pairs whose
// route crosses it (the ∼_e relation).
type Instance struct {
	Net    *graph.Undirected
	Router routing.Router
	Specs  []agg.Spec

	// SpecByDest indexes Specs by destination (one function per node, as in
	// the paper).
	SpecByDest map[graph.NodeID]agg.Spec
	// Paths holds the canonical route of every pair, endpoints inclusive.
	Paths map[Pair][]graph.NodeID
	// EdgePairs holds, per directed edge, the pairs crossing it, sorted by
	// (Source, Dest) for determinism.
	EdgePairs map[routing.Edge][]Pair
	// EdgeList holds every edge with at least one pair, sorted.
	EdgeList []routing.Edge
}

// NewInstance resolves routes for every pair of the workload and verifies
// the router's per-destination suffix property. Specs must have distinct
// destinations and non-empty source sets.
func NewInstance(net *graph.Undirected, router routing.Router, specs []agg.Spec) (*Instance, error) {
	inst := &Instance{
		Net:        net,
		Router:     router,
		Specs:      append([]agg.Spec(nil), specs...),
		SpecByDest: make(map[graph.NodeID]agg.Spec, len(specs)),
		Paths:      make(map[Pair][]graph.NodeID),
		EdgePairs:  make(map[routing.Edge][]Pair),
	}
	for _, sp := range inst.Specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		if int(sp.Dest) < 0 || int(sp.Dest) >= net.Len() {
			return nil, fmt.Errorf("plan: destination %d out of range", sp.Dest)
		}
		if _, dup := inst.SpecByDest[sp.Dest]; dup {
			return nil, fmt.Errorf("plan: destination %d has two aggregation functions", sp.Dest)
		}
		inst.SpecByDest[sp.Dest] = sp
	}

	byDest := make(map[graph.NodeID][][]graph.NodeID)
	for _, sp := range inst.Specs {
		for _, s := range sp.Func.Sources() {
			if int(s) < 0 || int(s) >= net.Len() {
				return nil, fmt.Errorf("plan: source %d out of range", s)
			}
			pr := Pair{Source: s, Dest: sp.Dest}
			path, err := router.Path(s, sp.Dest)
			if err != nil {
				return nil, fmt.Errorf("plan: routing pair %d→%d: %w", s, sp.Dest, err)
			}
			inst.Paths[pr] = path
			byDest[sp.Dest] = append(byDest[sp.Dest], path)
			for i := 0; i+1 < len(path); i++ {
				e := routing.Edge{From: path[i], To: path[i+1]}
				inst.EdgePairs[e] = append(inst.EdgePairs[e], pr)
			}
		}
	}
	if err := routing.CheckSuffixProperty(byDest); err != nil {
		return nil, fmt.Errorf("plan: router %q unusable: %w", router.Name(), err)
	}

	for e, pairs := range inst.EdgePairs {
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].Source != pairs[j].Source {
				return pairs[i].Source < pairs[j].Source
			}
			return pairs[i].Dest < pairs[j].Dest
		})
		inst.EdgeList = append(inst.EdgeList, e)
	}
	sort.Slice(inst.EdgeList, func(i, j int) bool {
		if inst.EdgeList[i].From != inst.EdgeList[j].From {
			return inst.EdgeList[i].From < inst.EdgeList[j].From
		}
		return inst.EdgeList[i].To < inst.EdgeList[j].To
	})
	return inst, nil
}

// EdgeSources returns the distinct sources S_e crossing e, ascending.
// EdgePairs is sorted by (Source, Dest), so this is an adjacent dedup.
func (inst *Instance) EdgeSources(e routing.Edge) []graph.NodeID {
	var out []graph.NodeID
	for _, p := range inst.EdgePairs[e] {
		if n := len(out); n == 0 || out[n-1] != p.Source {
			out = append(out, p.Source)
		}
	}
	return out
}

// EdgeDests returns the distinct destinations D_e crossing e, ascending.
func (inst *Instance) EdgeDests(e routing.Edge) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(inst.EdgePairs[e]))
	for _, p := range inst.EdgePairs[e] {
		out = append(out, p.Dest)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// PairEdgeIndex returns the position of e on the path of pr, or -1 if the
// path does not cross e.
func (inst *Instance) PairEdgeIndex(pr Pair, e routing.Edge) int {
	path := inst.Paths[pr]
	for i := 0; i+1 < len(path); i++ {
		if path[i] == e.From && path[i+1] == e.To {
			return i
		}
	}
	return -1
}

// MulticastSize returns the number of nodes in source s's multicast
// structure (|T_s| in Theorem 3): every node on some path from s.
func (inst *Instance) MulticastSize(s graph.NodeID) int {
	nodes := make(map[graph.NodeID]bool)
	for pr, path := range inst.Paths {
		if pr.Source != s {
			continue
		}
		for _, n := range path {
			nodes[n] = true
		}
	}
	return len(nodes)
}

// AggTreeSize returns the number of nodes in destination d's aggregation
// tree (|A_d| in Theorem 3): every node on some path toward d.
func (inst *Instance) AggTreeSize(d graph.NodeID) int {
	nodes := make(map[graph.NodeID]bool)
	for pr, path := range inst.Paths {
		if pr.Dest != d {
			continue
		}
		for _, n := range path {
			nodes[n] = true
		}
	}
	return len(nodes)
}

// Sources returns every node acting as a source, ascending.
func (inst *Instance) Sources() []graph.NodeID {
	seen := make(map[graph.NodeID]bool)
	var out []graph.NodeID
	for pr := range inst.Paths {
		if !seen[pr.Source] {
			seen[pr.Source] = true
			out = append(out, pr.Source)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Dests returns every destination, ascending.
func (inst *Instance) Dests() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(inst.SpecByDest))
	for d := range inst.SpecByDest {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
