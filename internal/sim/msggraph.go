package sim

import (
	"fmt"
	"sort"

	"m2m/internal/graph"
)

// MessageInfo describes one physical message of the round: its endpoints
// and the indices of messages that must be received before it is sent.
// It is the input to transmission scheduling (package schedule).
type MessageInfo struct {
	From, To graph.NodeID
	Deps     []int
}

// MessageGraph exports the engine's message layout with message-level
// wait-for dependencies. Only available in unicast modes (broadcast
// accounting does not retain per-message unit assignments).
func (p *Program) MessageGraph() ([]MessageInfo, error) {
	msgOf := make([]int, len(p.units))
	for i := range msgOf {
		msgOf[i] = -1
	}
	for mi, msg := range p.messages {
		if len(msg) == 0 {
			return nil, fmt.Errorf("sim: message graph unavailable in broadcast mode")
		}
		for _, ui := range msg {
			msgOf[ui] = mi
		}
	}
	out := make([]MessageInfo, len(p.messages))
	for mi, msg := range p.messages {
		edge := p.units[msg[0]].Edge
		deps := make(map[int]bool)
		for _, ui := range msg {
			for _, dep := range p.deps[ui] {
				if d := msgOf[dep]; d != mi {
					deps[d] = true
				}
			}
		}
		info := MessageInfo{From: edge.From, To: edge.To}
		for d := range deps {
			info.Deps = append(info.Deps, d)
		}
		sort.Ints(info.Deps)
		out[mi] = info
	}
	return out, nil
}
