package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"m2m"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// errSessionGone: the id was valid once but the session was destroyed
	// or evicted (HTTP 410).
	errSessionGone = errors.New("serve: session destroyed")
	// errSessionMissing: the id never existed (HTTP 404).
	errSessionMissing = errors.New("serve: no such session")
	// errSessionPoisoned: a previous step panicked; the session is
	// quarantined and every later use fails (HTTP 500).
	errSessionPoisoned = errors.New("serve: session poisoned by an earlier panic")
)

// stepper is the slice of ResilientSession the registry drives; tests
// substitute panicking fakes to exercise the poisoning path.
type stepper interface {
	Step() (*m2m.ResilientStep, error)
	Rounds() int
	TotalEnergyJ() float64
}

// session is one tenant simulation: a ResilientSession (not thread-safe)
// behind its own mutex, plus the bookkeeping the server needs to evict,
// poison, and checkpoint it.
type session struct {
	id     string
	tenant string
	// createRaw is the validated creation payload verbatim. Sessions are
	// deterministic in (createRaw, rounds stepped), so this plus the round
	// counter IS the checkpoint.
	createRaw []byte

	mu        sync.Mutex
	sim       stepper
	destroyed bool
	// poisoned carries the recovered panic value once a step blows up;
	// the session is then permanently out of service but its slot (and
	// the diagnostic) survive until destroy/eviction.
	poisoned string
	lastUsed time.Time
}

// StepEvent is the wire form of one round of telemetry — ResilientStep
// flattened to scalars plus a deterministic digest of the destination
// values, which is what replay verification compares.
type StepEvent struct {
	Round          int     `json:"round"`
	EnergyJ        float64 `json:"energyJ"`
	Fresh          int     `json:"fresh"`
	Stale          int     `json:"stale,omitempty"`
	Starved        int     `json:"starved,omitempty"`
	Detours        int     `json:"detours,omitempty"`
	DeadlineMisses int     `json:"deadlineMisses,omitempty"`
	Recoveries     int     `json:"recoveries,omitempty"`
	Quarantined    int     `json:"quarantined,omitempty"`
	Rejoins        []int   `json:"rejoins,omitempty"`
	EpochLag       int     `json:"epochLag,omitempty"`
	EpochDropped   int     `json:"epochDropped,omitempty"`
	Depleted       []int   `json:"depleted,omitempty"`
	Evacuations    int     `json:"evacuations,omitempty"`
	MinResidualJ   float64 `json:"minResidualJ,omitempty"`
	Collisions     int     `json:"collisions,omitempty"`
	CollisionRate  float64 `json:"collisionRate,omitempty"`
	TDMA           bool    `json:"tdma,omitempty"`
	Suspects       int     `json:"suspects,omitempty"`
	Excisions      int     `json:"excisions,omitempty"`
	Readmissions   int     `json:"readmissions,omitempty"`
	// ValuesHash digests the round's destination values (see valuesHash).
	ValuesHash string `json:"valuesHash"`
	// Values is the full destination-value map, included only on request.
	Values map[string]float64 `json:"values,omitempty"`
}

func toEvent(st *m2m.ResilientStep, includeValues bool) *StepEvent {
	ev := &StepEvent{
		Round:          st.Round,
		EnergyJ:        st.EnergyJ,
		Fresh:          st.Fresh,
		Stale:          st.Stale,
		Starved:        st.Starved,
		Detours:        st.Detours,
		DeadlineMisses: st.DeadlineMisses,
		Recoveries:     len(st.Recoveries),
		Quarantined:    st.Quarantined,
		Rejoins:        nodeInts(st.Rejoins),
		EpochLag:       st.EpochLag,
		EpochDropped:   st.EpochDropped,
		Depleted:       nodeInts(st.Depleted),
		Evacuations:    st.Evacuations,
		MinResidualJ:   st.MinResidualJ,
		Collisions:     st.Collisions,
		CollisionRate:  st.CollisionRate,
		TDMA:           st.TDMA,
		Suspects:       len(st.Suspects),
		Excisions:      len(st.Excisions),
		Readmissions:   len(st.Readmissions),
		ValuesHash:     valuesHash(st.Values),
	}
	if includeValues {
		ev.Values = make(map[string]float64, len(st.Values))
		for d, v := range st.Values {
			ev.Values[fmt.Sprintf("%d", int64(d))] = v
		}
	}
	return ev
}

func nodeInts(ids []m2m.NodeID) []int {
	if len(ids) == 0 {
		return nil
	}
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

// step executes up to rounds rounds under the session lock, honoring ctx
// between rounds (a canceled deadline returns what completed so far along
// with the context error). A panic inside the simulator poisons the
// session instead of killing the server.
func (s *session) step(ctx context.Context, rounds int, includeValues bool, each func(*StepEvent)) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.destroyed {
		return errSessionGone
	}
	if s.poisoned != "" {
		return fmt.Errorf("%w: %s", errSessionPoisoned, s.poisoned)
	}
	s.lastUsed = time.Now()
	defer func() {
		if r := recover(); r != nil {
			s.poisoned = fmt.Sprint(r)
			err = fmt.Errorf("%w: %v", errSessionPoisoned, r)
		}
		s.lastUsed = time.Now()
	}()
	for i := 0; i < rounds; i++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		st, serr := s.sim.Step()
		if serr != nil {
			return serr
		}
		each(toEvent(st, includeValues))
	}
	return nil
}

// registry owns every live session: id allocation, lookup, idle eviction.
//
// Ids are issued in sequence and never reused, so no tombstones are kept:
// a canonical id numbered 1..nextID that is not live was issued and then
// destroyed or evicted (the honest 410), and anything else never existed
// (404). The rule costs no memory and never forgets an id.
type registry struct {
	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64 // the highest id number issued (or restored) so far
}

func newRegistry() *registry {
	return &registry{sessions: make(map[string]*session)}
}

// sessionID formats id number n in its canonical form.
func sessionID(n uint64) string { return fmt.Sprintf("s-%08x", n) }

// parseSessionID returns the number of a canonical session id; ok is
// false for anything sessionID could not have produced.
func parseSessionID(id string) (n uint64, ok bool) {
	if !strings.HasPrefix(id, "s-") {
		return 0, false
	}
	n, err := strconv.ParseUint(id[2:], 16, 64)
	if err != nil || sessionID(n) != id {
		return 0, false
	}
	return n, true
}

// missing classifies an id that is not live. Must be called with r.mu
// held.
func (r *registry) missing(id string) error {
	if n, ok := parseSessionID(id); ok && n >= 1 && n <= r.nextID {
		return errSessionGone
	}
	return errSessionMissing
}

// raiseNextID makes sure no id numbered n or lower is issued again.
func (r *registry) raiseNextID(n uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.nextID {
		r.nextID = n
	}
}

// issuedIDs returns the highest id number issued so far.
func (r *registry) issuedIDs() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextID
}

func (r *registry) add(tenant string, createRaw []byte, sim stepper) *session {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	s := &session{
		id:        sessionID(r.nextID),
		tenant:    tenant,
		createRaw: createRaw,
		sim:       sim,
		lastUsed:  time.Now(),
	}
	r.sessions[s.id] = s
	return s
}

// addWithID restores a checkpointed session under its original id.
func (r *registry) addWithID(id, tenant string, createRaw []byte, sim stepper) (*session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.sessions[id]; exists {
		return nil, fmt.Errorf("serve: session id %q already live", id)
	}
	n, ok := parseSessionID(id)
	if !ok || n == 0 {
		return nil, fmt.Errorf("serve: malformed session id %q", id)
	}
	if n > r.nextID {
		r.nextID = n
	}
	s := &session{id: id, tenant: tenant, createRaw: createRaw, sim: sim, lastUsed: time.Now()}
	r.sessions[id] = s
	return s, nil
}

func (r *registry) get(id string) (*session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sessions[id]; ok {
		return s, nil
	}
	return nil, r.missing(id)
}

// destroy removes the session and marks it destroyed, so a step racing
// with the destroy fails cleanly rather than driving a freed simulator.
func (r *registry) destroy(id string) error {
	r.mu.Lock()
	s, ok := r.sessions[id]
	if !ok {
		err := r.missing(id)
		r.mu.Unlock()
		return err
	}
	delete(r.sessions, id)
	r.mu.Unlock()
	s.mu.Lock()
	s.destroyed = true
	s.mu.Unlock()
	return nil
}

func (r *registry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// evictIdle destroys sessions untouched for longer than maxIdle and
// returns how many went. Sessions mid-step hold their own lock, not the
// registry's, so a long step cannot stall eviction of its neighbors; the
// TryLock skip leaves busy sessions alone (their step refreshes lastUsed
// on the way out).
func (r *registry) evictIdle(maxIdle time.Duration, now time.Time) int {
	r.mu.Lock()
	candidates := make([]*session, 0)
	for _, s := range r.sessions {
		candidates = append(candidates, s)
	}
	r.mu.Unlock()

	evicted := 0
	for _, s := range candidates {
		if !s.mu.TryLock() {
			continue // mid-step: by definition not idle
		}
		idle := now.Sub(s.lastUsed) > maxIdle
		if idle {
			s.destroyed = true
		}
		s.mu.Unlock()
		if idle {
			r.mu.Lock()
			delete(r.sessions, s.id)
			r.mu.Unlock()
			evicted++
		}
	}
	return evicted
}

// snapshot returns the live sessions sorted by id (checkpointing wants a
// stable order).
func (r *registry) snapshot() []*session {
	r.mu.Lock()
	out := make([]*session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}
