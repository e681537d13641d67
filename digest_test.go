package m2m

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"testing"
)

// sessionDigest folds one stepped round into h: the step report as JSON
// (maps serialize with sorted keys and floats in shortest round-trip form,
// so the encoding is exact) plus the session state a round can move: plan
// epoch, lagging, dead, quarantined and evacuated sets, the TDMA switch
// and its smoothed collision rate, and — with a ledger — every residual.
func sessionDigest(t *testing.T, h hash.Hash, s *ResilientSession, step *ResilientStep, bat *Battery) {
	t.Helper()
	state := struct {
		Step        *ResilientStep
		Epoch       uint32
		Lagging     []NodeID
		Dead        []NodeID
		Quarantined []NodeID
		Evacuated   []NodeID
		TDMA        bool
		CollRate    float64
		Residual    []float64
	}{step, s.PlanEpoch(), s.EpochLaggingNodes(), s.DeadNodes(), s.QuarantinedNodes(), s.EvacuatedNodes(), s.TDMAActive(), s.CollisionRate(), nil}
	if bat != nil {
		for n := 0; n < bat.Len(); n++ {
			state.Residual = append(state.Residual, bat.Residual(NodeID(n)))
		}
	}
	b, err := json.Marshal(state)
	if err != nil {
		t.Fatalf("round %d: %v", step.Round, err)
	}
	h.Write(b)
}

// stepDigest runs a session for rounds rounds and folds every step into
// h; a step error is folded in too and ends the run, exactly as a
// session is not steppable past one.
func stepDigest(t *testing.T, h hash.Hash, s *ResilientSession, rounds int, bat *Battery) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		step, err := s.Step()
		if err != nil {
			fmt.Fprintf(h, "step %d: %v\n", i, err)
			return
		}
		sessionDigest(t, h, s, step, bat)
	}
}

// TestSessionDigestPinned pins every ResilientStep of the generated
// fuzz scenarios, and of battery sessions under a collision channel (a
// composition the scenario generator never draws), to SHA-256 digests
// taken before the session was split into stages. Any change to what a
// session observes, decides or reports — one bit of one value, one
// joule, one fenced frame — changes a digest.
//
// Float results are only reproducible bit for bit where the compiler
// does not fuse multiply-adds, which it does on arm64, ppc64x and s390x;
// the pins are amd64 digests.
func TestSessionDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64; fused multiply-add changes float bits elsewhere")
	}
	t.Run("scenarios", func(t *testing.T) {
		seeds := int64(300)
		want := "d10eec0bde00e9b009317ec407a12ea1f693a55fc4b5dded15a9e013e80778b0"
		if testing.Short() {
			seeds, want = 60, "2986f3b5482dac2aba641bf833f07740d503215a0c7c145ba123e9679ae76be3"
		}
		h := sha256.New()
		for seed := int64(1); seed <= seeds; seed++ {
			fmt.Fprintf(h, "seed %d\n", seed)
			sc, err := GenerateScenario(seed)
			if err != nil {
				fmt.Fprintf(h, "generate: %v\n", err)
				continue
			}
			run, err := NewScenarioRun(sc)
			if err != nil {
				fmt.Fprintf(h, "build: %v\n", err)
				continue
			}
			stepDigest(t, h, run.Session, sc.Rounds, run.Battery)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Fatalf("seeds 1-%d digest %s, pinned %s", seeds, got, want)
		}
	})

	// Battery ledgers from 5 to 100 mJ under a capture-free collision
	// channel, with the TDMA switch armed and disabled: relays brown out,
	// are condemned and planned around, lagging nodes get fenced, and the
	// tightest ledgers run the session into an unroutable workload.
	t.Run("battery+collision", func(t *testing.T) {
		h := sha256.New()
		for _, capMJ := range []float64{5, 10, 20, 50, 100} {
			for _, tdma := range []float64{0, -1} {
				fmt.Fprintf(h, "cap %g tdma %g\n", capMJ, tdma)
				net, specs, gen := chaosFixture(t, 13)
				bat, err := NewBattery(net.Len(), capMJ/1000)
				if err != nil {
					t.Fatal(err)
				}
				inj := NewFaultInjector(13).WithCollisions(0)
				s, err := NewResilientSession(net, specs, RouterReversePath, gen, inj,
					ResilientConfig{Battery: bat, TDMASwitchThreshold: tdma})
				if err != nil {
					t.Fatal(err)
				}
				stepDigest(t, h, s, 24, bat)
			}
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), "72debaa91e65019e4a0fc3671b79e59be79475759a56beb1ff6e031edde2ea43"; got != want {
			t.Fatalf("battery+collision digest %s, pinned %s", got, want)
		}
	})
}
