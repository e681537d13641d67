package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
)

// TestRegistryIDRule pins the id rule: a canonical id numbered 1..nextID
// that is not live answers 410, anything else 404 — however many sessions
// came and went before.
func TestRegistryIDRule(t *testing.T) {
	r := newRegistry()
	first := r.add("t", nil, &fakeSim{})
	// Enough destroys that a bounded record of destroyed ids would have
	// had to forget the first one.
	for i := 0; i < 1<<16; i++ {
		if err := r.destroy(r.add("t", nil, &fakeSim{}).id); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.destroy(first.id); err != nil {
		t.Fatal(err)
	}
	live := r.add("t", nil, &fakeSim{})
	if _, err := r.get(live.id); err != nil {
		t.Fatalf("live id %s: %v", live.id, err)
	}
	for _, tc := range []struct {
		id   string
		want error
	}{
		{first.id, errSessionGone},
		{"s-00000002", errSessionGone},
		{sessionID(r.nextID - 1), errSessionGone},
		{sessionID(r.nextID + 1), errSessionMissing},
		{"s-00000000", errSessionMissing},
		{"s-1", errSessionMissing},        // not canonical: unpadded
		{"s-0000000A", errSessionMissing}, // not canonical: upper case
		{"s-+0000001", errSessionMissing}, // not canonical: signed
		{"x-00000001", errSessionMissing}, // wrong prefix
		{"s-ffffffffffffffff", errSessionMissing},
		{"", errSessionMissing},
	} {
		if _, err := r.get(tc.id); !errors.Is(err, tc.want) {
			t.Errorf("get(%q) = %v, want %v", tc.id, err, tc.want)
		}
		if err := r.destroy(tc.id); !errors.Is(err, tc.want) {
			t.Errorf("destroy(%q) = %v, want %v", tc.id, err, tc.want)
		}
	}
}

// TestCheckpointKeepsIDCounter: destroying the highest id, checkpointing
// and restoring must not let the restored server hand that id to a new
// tenant — the new session gets a fresh id and the old one stays 410.
func TestCheckpointKeepsIDCounter(t *testing.T) {
	sA, tsA := newTestServer(t, Config{})
	kept := mustCreate(t, tsA, createBody(1))
	dropped := mustCreate(t, tsA, createBody(2))
	if status, _, _ := doReq(t, "DELETE", tsA.URL+"/v1/sessions/"+dropped.ID, nil, nil); status != http.StatusNoContent {
		t.Fatalf("destroy: status %d", status)
	}
	var buf bytes.Buffer
	if err := sA.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	sB, tsB := newTestServer(t, Config{})
	if n, err := sB.Restore(context.Background(), bytes.NewReader(buf.Bytes())); err != nil || n != 1 {
		t.Fatalf("restore: %d sessions, %v", n, err)
	}
	fresh := mustCreate(t, tsB, createBody(3))
	if fresh.ID == dropped.ID || fresh.ID == kept.ID {
		t.Fatalf("restored server reissued id %s", fresh.ID)
	}
	if status, _, _ := doReq(t, "GET", tsB.URL+"/v1/sessions/"+dropped.ID, nil, nil); status != http.StatusGone {
		t.Fatalf("destroyed id after restore: status %d, want 410", status)
	}

	// A checkpoint written before nextId existed still restores; its ids
	// then only cover the sessions it lists.
	var cp Checkpoint
	if err := json.Unmarshal(buf.Bytes(), &cp); err != nil {
		t.Fatal(err)
	}
	cp.NextID = 0
	old, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(old, []byte("nextId")) {
		t.Fatalf("zero nextId still serialized: %s", old)
	}
	sC, tsC := newTestServer(t, Config{})
	if n, err := sC.Restore(context.Background(), bytes.NewReader(old)); err != nil || n != 1 {
		t.Fatalf("restore of a checkpoint without nextId: %d sessions, %v", n, err)
	}
	if got := mustStep(t, tsC, kept.ID, 1); got.Rounds != 1 {
		t.Fatalf("restored session stepped to round %d", got.Rounds)
	}
}
