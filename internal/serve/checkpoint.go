package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
)

// checkpointVersion guards the on-disk format.
const checkpointVersion = 1

// SessionCheckpoint is one serialized session. Sessions are deterministic
// in (creation payload, rounds stepped) — faults, readings, and every
// recovery decision derive from seeds in the payload — so the checkpoint
// is exactly that pair; restore re-creates the session and replays the
// rounds, arriving at bit-identical state.
type SessionCheckpoint struct {
	ID     string          `json:"id"`
	Tenant string          `json:"tenant"`
	Create json.RawMessage `json:"create"`
	Rounds int             `json:"rounds"`
}

// Checkpoint is the serialized server state.
type Checkpoint struct {
	Version  int                 `json:"version"`
	Sessions []SessionCheckpoint `json:"sessions"`
	// NextID is the highest session id number the server had issued.
	// Restore never issues an id at or below it again, so ids of
	// sessions destroyed before the checkpoint keep answering 410 and
	// cannot be handed to a new tenant. Optional: checkpoints written
	// without it restore as before.
	NextID uint64 `json:"nextId,omitempty"`
}

// Checkpoint writes every live, healthy session to w. Poisoned sessions
// are skipped — a checkpoint never resurrects corrupt state. Sessions
// mid-step are captured at their last completed round (the step lock is
// taken per session).
func (s *Server) Checkpoint(w io.Writer) error {
	cp := Checkpoint{Version: checkpointVersion}
	for _, sess := range s.reg.snapshot() {
		sess.mu.Lock()
		if !sess.destroyed && sess.poisoned == "" {
			cp.Sessions = append(cp.Sessions, SessionCheckpoint{
				ID:     sess.id,
				Tenant: sess.tenant,
				Create: json.RawMessage(sess.createRaw),
				Rounds: sess.sim.Rounds(),
			})
		}
		sess.mu.Unlock()
	}
	// Read after the snapshot: every id issued before this point — listed
	// above or not — is at or below it.
	cp.NextID = s.reg.issuedIDs()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cp)
}

// Restore replays a checkpoint into the registry: each session is rebuilt
// from its creation payload (plans come out of the cache, so identical
// tenants still share one optimization) and stepped back to its
// checkpointed round. Returns how many sessions were restored; ctx
// cancels the replay between rounds.
func (s *Server) Restore(ctx context.Context, r io.Reader) (int, error) {
	var cp Checkpoint
	dec := json.NewDecoder(r)
	if err := dec.Decode(&cp); err != nil {
		return 0, fmt.Errorf("serve: reading checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return 0, fmt.Errorf("serve: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	// Restored ids raise the counter themselves (addWithID); this covers
	// the ids above them that were issued and destroyed before the
	// checkpoint.
	s.reg.raiseNextID(cp.NextID)
	restored := 0
	for _, sc := range cp.Sessions {
		req, err := DecodeCreateSession(sc.Create)
		if err != nil {
			return restored, fmt.Errorf("serve: checkpoint session %s: %w", sc.ID, err)
		}
		if sc.Rounds < 0 || sc.Rounds > maxRoundsHard {
			return restored, fmt.Errorf("serve: checkpoint session %s: rounds %d outside [0,%d]", sc.ID, sc.Rounds, maxRoundsHard)
		}
		sim, _, _, err := s.buildSession(req)
		if err != nil {
			return restored, fmt.Errorf("serve: checkpoint session %s: %w", sc.ID, err)
		}
		sess, err := s.reg.addWithID(sc.ID, sc.Tenant, sc.Create, sim)
		if err != nil {
			return restored, err
		}
		if err := sess.step(ctx, sc.Rounds, false, func(*StepEvent) {}); err != nil {
			return restored, fmt.Errorf("serve: replaying session %s: %w", sc.ID, err)
		}
		restored++
	}
	return restored, nil
}
