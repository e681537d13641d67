package sim

import (
	"sort"

	"m2m/internal/graph"
	"m2m/internal/plan"
)

// accountBroadcastEnergy prices each sending node's traffic as a single
// local broadcast heard by exactly its intended recipients (selective
// listening). Raw units destined for several out-edges are carried once;
// record units are per-destination and already unique to one out-edge.
// Every intended neighbor receives the whole broadcast body — that is the
// price of sharing the medium — so broadcast wins exactly when a node
// duplicates enough raw bytes across out-edges to cover its neighbors'
// extra listening.
func (p *Program) accountBroadcastEnergy() {
	p.energyJ = 0
	p.bodyBytes = 0
	p.perNodeJ = make(map[graph.NodeID]float64)

	type nodeTraffic struct {
		rawBytes  map[graph.NodeID]int // deduplicated raw units by source
		recBytes  int
		listeners map[graph.NodeID]bool
	}
	byNode := make(map[graph.NodeID]*nodeTraffic)
	var senders []graph.NodeID
	for _, u := range p.units {
		n := u.Edge.From
		t, ok := byNode[n]
		if !ok {
			t = &nodeTraffic{
				rawBytes:  make(map[graph.NodeID]int),
				listeners: make(map[graph.NodeID]bool),
			}
			byNode[n] = t
			senders = append(senders, n)
		}
		if u.Kind == plan.UnitRaw {
			t.rawBytes[u.Node] = p.Plan.Bytes(u)
		} else {
			t.recBytes += p.Plan.Bytes(u)
		}
		t.listeners[u.Edge.To] = true
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })

	// One broadcast message per sender.
	p.messages = p.messages[:0]
	for _, n := range senders {
		t := byNode[n]
		body := t.recBytes
		for _, b := range t.rawBytes {
			body += b
		}
		p.bodyBytes += body
		p.energyJ += p.Radio.BroadcastJoules(body, len(t.listeners))
		p.perNodeJ[n] += p.Radio.TxJoules(body)
		for l := range t.listeners {
			p.perNodeJ[l] += p.Radio.RxJoules(body)
		}
		// Record the broadcast as one message for reporting purposes; the
		// unit indices are not needed downstream of energy accounting.
		p.messages = append(p.messages, nil)
	}
}
