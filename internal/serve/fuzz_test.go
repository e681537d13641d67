package serve

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeCreateSession hardens the session decoder against arbitrary
// bytes: it must reject or accept without panicking, and an accepted
// request must survive a marshal/decode round trip and derive a stable
// plan key — the cache's correctness hinges on that stability.
func FuzzDecodeCreateSession(f *testing.F) {
	f.Add([]byte(`{"topology":{"kind":"gdi"},"workload":{"specs":"5 = sum(1, 2)"}}`))
	f.Add(createBody(1))
	f.Add([]byte(`{"topology":{"kind":"grid","nx":4,"ny":4,"spacing":40},"workload":{"generate":{"destFraction":0.2,"sourcesPerDest":3,"dispersion":0.5}},"faults":{"loss":0.1,"crashNode":3},"battery":{"capacityJ":5}}`))
	f.Add([]byte(gdi(`"router":"mindegree"`)))
	f.Add([]byte(gdi(`"faults":{"seed":5,"loss":0.1,"crashNode":12,"crashRound":2}`)))
	f.Add([]byte(gdi(`"battery":{"capacityJ":0.05,"evacHorizonRounds":3}`)))
	f.Add([]byte(`{"topology":{"kind":"random","nodes":-1}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte{0xff, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeCreateSession(data)
		if err != nil {
			return
		}
		key1, err := req.PlanKey()
		if err != nil || key1 == "" {
			t.Fatalf("accepted request has no plan key: %v", err)
		}
		re, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request failed to marshal: %v", err)
		}
		again, err := DecodeCreateSession(re)
		if err != nil {
			t.Fatalf("marshaled request failed to re-decode: %v\n%s", err, re)
		}
		key2, err := again.PlanKey()
		if err != nil || key2 != key1 {
			t.Fatalf("plan key unstable across round trip: %q vs %q (%v)", key1, key2, err)
		}
	})
}

// FuzzDecodeSweep mirrors FuzzDecodeCreateSession for the sweep decoder:
// no panic, bounded seed ranges, round-trippable accepted requests.
func FuzzDecodeSweep(f *testing.F) {
	f.Add(sweepBody())
	f.Add([]byte(`{"topology":{"kind":"gdi"},"workload":{"specs":"5 = sum(1, 2)"},"seedFrom":0,"seedTo":1,"variants":[{"name":"a"}]}`))
	f.Add([]byte(`{"seedFrom":9223372036854775807,"seedTo":-9223372036854775808}`))
	f.Add([]byte(`{"variants":[{}]}`))
	f.Add([]byte{'{'})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSweep(data)
		if err != nil {
			return
		}
		if req.SeedTo-req.SeedFrom <= 0 || req.SeedTo-req.SeedFrom > maxSweepSeeds {
			t.Fatalf("accepted seed range [%d,%d)", req.SeedFrom, req.SeedTo)
		}
		if len(req.Variants) == 0 {
			t.Fatalf("accepted sweep without variants")
		}
		if _, err := req.PlanKey(); err != nil {
			t.Fatalf("accepted sweep has no plan key: %v", err)
		}
		re, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted sweep failed to marshal: %v", err)
		}
		if _, err := DecodeSweep(re); err != nil {
			t.Fatalf("marshaled sweep failed to re-decode: %v\n%s", err, re)
		}
	})
}

// FuzzDecodeStep: arbitrary bytes never panic the step decoder, and an
// accepted request's round count is inside the hard bounds.
func FuzzDecodeStep(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"rounds":5,"values":true}`))
	f.Add([]byte(`{"rounds":-1}`))
	f.Add([]byte(`{"rounds":1e18}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeStep(data)
		if err != nil {
			return
		}
		if req.Rounds < 0 || req.Rounds > maxRoundsHard {
			t.Fatalf("accepted %d rounds", req.Rounds)
		}
	})
}
