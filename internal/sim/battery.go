package sim

import (
	"fmt"
	"math"
	"sync"

	"m2m/internal/graph"
)

// DefaultBatteryCapacityJ is the per-node battery capacity used by the CLI
// and experiments when none is specified. It matches the budget used by
// LifetimeRounds callers in earlier revisions.
const DefaultBatteryCapacityJ = 10_000.0

// Battery is a per-node residual-energy ledger shared by every executor.
// Executors debit the actual energy each node spends (per-attempt ARQ
// retransmissions included) and a node whose residual hits zero stops
// transmitting: lossy and async rounds gate senders and receivers on
// Spend, while the fault-free executors drain wholesale (exhaustion
// failures only manifest where frames can actually be lost).
//
// Battery is safe for concurrent use (RunConcurrent workers debit from
// multiple goroutines).
type Battery struct {
	mu        sync.Mutex
	capacity  []float64
	residual  []float64
	spent     []float64
	deadRound []int // -1 while alive; round of first failed/forfeited debit
}

// NewBattery creates a ledger for n nodes, each starting with capacityJ
// joules of residual charge.
func NewBattery(n int, capacityJ float64) (*Battery, error) {
	if n <= 0 {
		return nil, fmt.Errorf("battery: node count %d must be positive", n)
	}
	if !(capacityJ > 0) || math.IsInf(capacityJ, 1) {
		return nil, fmt.Errorf("battery: capacity %g J must be positive and finite", capacityJ)
	}
	b := &Battery{
		capacity:  make([]float64, n),
		residual:  make([]float64, n),
		spent:     make([]float64, n),
		deadRound: make([]int, n),
	}
	for i := range b.capacity {
		b.capacity[i] = capacityJ
		b.residual[i] = capacityJ
		b.deadRound[i] = -1
	}
	return b, nil
}

// SetCapacity overrides one node's capacity and residual charge, e.g. to
// give a hot relay a battery sized to die mid-run.
func (b *Battery) SetCapacity(n graph.NodeID, capacityJ float64) error {
	if err := b.check(n); err != nil {
		return err
	}
	if !(capacityJ > 0) || math.IsInf(capacityJ, 1) {
		return fmt.Errorf("battery: capacity %g J for node %d must be positive and finite", capacityJ, n)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.capacity[n] = capacityJ
	b.residual[n] = capacityJ
	b.spent[n] = 0
	b.deadRound[n] = -1
	return nil
}

func (b *Battery) check(n graph.NodeID) error {
	if int(n) < 0 || int(n) >= len(b.capacity) {
		return fmt.Errorf("battery: node %d out of range [0,%d)", n, len(b.capacity))
	}
	return nil
}

// Spend debits j joules from node n during the given round. It returns
// true if the node could afford the debit. On failure the node browns
// out: whatever residual remained is forfeited (set to zero, not booked
// as spend — conservation tests count only energy actually paid) and the
// node is marked depleted at this round. Spending zero or negative
// amounts always succeeds and debits nothing.
func (b *Battery) Spend(round int, n graph.NodeID, j float64) bool {
	if j <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.deadRound[n] >= 0 {
		return false
	}
	if b.residual[n] < j {
		b.residual[n] = 0
		b.deadRound[n] = round
		return false
	}
	b.residual[n] -= j
	b.spent[n] += j
	return true
}

// DrainPerRound debits every node's static per-round spend wholesale.
// The fault-free executors use it after each round: they cannot model a
// node falling silent mid-round (no frame there can be lost), so a node
// that cannot afford its share browns out at the round boundary instead.
// It allocates nothing.
func (b *Battery) DrainPerRound(round int, perNode map[graph.NodeID]float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for n, j := range perNode {
		if j <= 0 || b.deadRound[n] >= 0 {
			continue
		}
		if b.residual[n] < j {
			b.residual[n] = 0
			b.deadRound[n] = round
			continue
		}
		b.residual[n] -= j
		b.spent[n] += j
	}
}

// Len returns the number of nodes the ledger covers.
func (b *Battery) Len() int { return len(b.capacity) }

// Residual returns node n's remaining charge in joules.
func (b *Battery) Residual(n graph.NodeID) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.residual[n]
}

// CapacityJ returns node n's configured capacity in joules.
func (b *Battery) CapacityJ(n graph.NodeID) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capacity[n]
}

// SpentJ returns the energy node n has actually paid so far.
func (b *Battery) SpentJ(n graph.NodeID) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spent[n]
}

// TotalSpentJ returns the sum of energy paid across all nodes.
func (b *Battery) TotalSpentJ() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var sum float64
	for _, j := range b.spent {
		sum += j
	}
	return sum
}

// Depleted reports whether node n has exhausted its battery.
func (b *Battery) Depleted(n graph.NodeID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.deadRound[n] >= 0
}

// DepletedAt returns the round node n browned out, or -1 if still alive.
func (b *Battery) DepletedAt(n graph.NodeID) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.deadRound[n]
}

// DepletedNodes returns all exhausted nodes in ascending ID order.
func (b *Battery) DepletedNodes() []graph.NodeID {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []graph.NodeID
	for i, r := range b.deadRound {
		if r >= 0 {
			out = append(out, graph.NodeID(i))
		}
	}
	return out
}

// FirstDeathRound returns the earliest round any node depleted, or -1 if
// every node is still alive.
func (b *Battery) FirstDeathRound() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	first := -1
	for _, r := range b.deadRound {
		if r >= 0 && (first < 0 || r < first) {
			first = r
		}
	}
	return first
}

// MinResidualJ returns the smallest residual charge among nodes that have
// not yet depleted, or 0 if every node is exhausted.
func (b *Battery) MinResidualJ() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	min := -1.0
	for i, r := range b.residual {
		if b.deadRound[i] >= 0 {
			continue
		}
		if min < 0 || r < min {
			min = r
		}
	}
	if min < 0 {
		return 0
	}
	return min
}
