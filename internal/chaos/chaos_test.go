package chaos

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"m2m/internal/graph"
	"m2m/internal/radio"
	"m2m/internal/routing"
)

func TestZeroValueInjectsNothing(t *testing.T) {
	in := New(7)
	e := routing.Edge{From: 3, To: 4}
	for r := 0; r < 10; r++ {
		if !in.Deliver(r, e, 0) {
			t.Fatalf("empty injector dropped round %d", r)
		}
		if in.NodeDead(r, 3) || in.LinkDown(r, e) {
			t.Fatalf("empty injector faulted round %d", r)
		}
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Injector { return New(42).WithUniformLoss(0.5) }
	a, b := mk(), mk()
	e := routing.Edge{From: 1, To: 2}
	for r := 0; r < 50; r++ {
		for att := 0; att < 4; att++ {
			if a.Deliver(r, e, att) != b.Deliver(r, e, att) {
				t.Fatalf("same seed diverged at round %d attempt %d", r, att)
			}
		}
	}
	// Different seeds must diverge somewhere.
	c := New(43).WithUniformLoss(0.5)
	same := true
	for r := 0; r < 50 && same; r++ {
		if a.Deliver(r, e, 0) != c.Deliver(r, e, 0) {
			same = false
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical outcomes")
	}
}

// TestRepeatedQueriesIdentical is the purity property every executor
// depends on: whatever the injector answers for a (round, edge, attempt)
// query — delivery, latency, duplication — it answers identically on every
// later repetition, in any interleaving, across every schedule method.
func TestRepeatedQueriesIdentical(t *testing.T) {
	in := New(99).
		WithUniformLoss(0.4).
		WithJitter(2, 30).
		WithDuplication(0.25).
		WithReorder(0.2, 80).
		AddOutage(routing.Edge{From: 1, To: 2}, 5, 3).
		Crash(7, 11)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	type query struct {
		round, attempt, copy int
		e                    routing.Edge
	}
	rng := rand.New(rand.NewSource(4))
	queries := make([]query, 400)
	for i := range queries {
		queries[i] = query{
			round:   rng.Intn(30),
			attempt: rng.Intn(6),
			copy:    rng.Intn(3),
			e:       routing.Edge{From: graph.NodeID(rng.Intn(12)), To: graph.NodeID(rng.Intn(12))},
		}
	}
	type answer struct {
		deliver, dead, down bool
		latency             float64
		dups                int
	}
	ask := func(q query) answer {
		return answer{
			deliver: in.Deliver(q.round, q.e, q.attempt),
			dead:    in.NodeDead(q.round, q.e.From),
			down:    in.LinkDown(q.round, q.e),
			latency: in.LatencyMS(q.round, q.e, q.attempt, q.copy),
			dups:    in.Duplicates(q.round, q.e, q.attempt),
		}
	}
	first := make([]answer, len(queries))
	for i, q := range queries {
		first[i] = ask(q)
	}
	// Re-ask in a shuffled order, twice.
	for pass := 0; pass < 2; pass++ {
		perm := rng.Perm(len(queries))
		for _, i := range perm {
			if got := ask(queries[i]); got != first[i] {
				t.Fatalf("query %+v changed its answer: %+v then %+v", queries[i], first[i], got)
			}
		}
	}
	for i, a := range first {
		if a.latency < 2 {
			t.Fatalf("query %d: latency %v below the 2ms base", i, a.latency)
		}
		if a.dups != 0 && a.dups != 1 {
			t.Fatalf("query %d: %d duplicates, want 0 or 1", i, a.dups)
		}
	}
}

// The timing knobs must not perturb the delivery draw: a schedule with and
// without jitter/duplication drops exactly the same attempts.
func TestTimingKnobsLeaveDeliveryUnchanged(t *testing.T) {
	plain := New(7).WithUniformLoss(0.3)
	timed := New(7).WithUniformLoss(0.3).WithJitter(1, 50).WithDuplication(0.4).WithReorder(0.3, 10)
	e := routing.Edge{From: 3, To: 9}
	for r := 0; r < 40; r++ {
		for att := 0; att < 4; att++ {
			if plain.Deliver(r, e, att) != timed.Deliver(r, e, att) {
				t.Fatalf("round %d attempt %d: timing knobs changed delivery", r, att)
			}
		}
	}
}

func TestJitterAndDuplicationStatistics(t *testing.T) {
	in := New(11).WithJitter(5, 20).WithDuplication(0.3)
	e := routing.Edge{From: 0, To: 1}
	var sum float64
	dups := 0
	const n = 20000
	for i := 0; i < n; i++ {
		l := in.LatencyMS(i, e, 0, 0)
		if l < 5 || l >= 25 {
			t.Fatalf("round %d: latency %v outside [5, 25)", i, l)
		}
		sum += l
		dups += in.Duplicates(i, e, 0)
	}
	if mean := sum / n; math.Abs(mean-15) > 0.5 {
		t.Errorf("mean latency %.2f, want ≈15", mean)
	}
	if got := float64(dups) / n; math.Abs(got-0.3) > 0.02 {
		t.Errorf("empirical duplication %.3f, want ≈0.30", got)
	}
	// Copies draw independent latencies: the duplicate is not a replay.
	varies := false
	for i := 0; i < 20 && !varies; i++ {
		if in.LatencyMS(i, e, 0, 0) != in.LatencyMS(i, e, 0, 1) {
			varies = true
		}
	}
	if !varies {
		t.Error("duplicate copies always share the primary's latency")
	}
}

func TestTimingValidate(t *testing.T) {
	if err := New(0).WithJitter(-1, 0).Validate(); err == nil {
		t.Error("negative base latency accepted")
	}
	if err := New(0).WithJitter(0, -2).Validate(); err == nil {
		t.Error("negative jitter accepted")
	}
	if err := New(0).WithDuplication(1).Validate(); err == nil {
		t.Error("duplication probability 1 accepted")
	}
	if err := New(0).WithReorder(-0.1, 5).Validate(); err == nil {
		t.Error("negative reorder probability accepted")
	}
	if err := New(0).WithReorder(0.2, -5).Validate(); err == nil {
		t.Error("negative reorder delay accepted")
	}
	if err := New(0).WithJitter(1, 4).WithDuplication(0.1).WithReorder(0.1, 3).Validate(); err != nil {
		t.Errorf("valid timing model rejected: %v", err)
	}
}

func TestLossRateStatistics(t *testing.T) {
	in := New(1).WithUniformLoss(0.3)
	e := routing.Edge{From: 0, To: 1}
	drops := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if !in.Deliver(i, e, 0) {
			drops++
		}
	}
	got := float64(drops) / n
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("empirical loss %.3f, want ≈0.30", got)
	}
}

func TestAttemptsAreIndependentDraws(t *testing.T) {
	in := New(5).WithUniformLoss(0.5)
	e := routing.Edge{From: 2, To: 9}
	varies := false
	for r := 0; r < 20 && !varies; r++ {
		if in.Deliver(r, e, 0) != in.Deliver(r, e, 1) {
			varies = true
		}
	}
	if !varies {
		t.Error("retry attempts never change the outcome")
	}
}

func TestOutageWindow(t *testing.T) {
	e := routing.Edge{From: 4, To: 7}
	rev := routing.Edge{From: 7, To: 4}
	in := New(0).AddOutage(e, 3, 2)
	for r := 0; r < 8; r++ {
		want := r == 3 || r == 4
		if in.LinkDown(r, e) != want {
			t.Errorf("round %d: LinkDown = %v, want %v", r, !want, want)
		}
		// Outages are physical: the reverse direction is down too.
		if in.LinkDown(r, rev) != want {
			t.Errorf("round %d: reverse direction not symmetric", r)
		}
		if want && in.Deliver(r, e, 0) {
			t.Errorf("round %d: delivery through an outage", r)
		}
	}
}

func TestCrashIsPermanent(t *testing.T) {
	in := New(0).Crash(6, 4)
	for r := 0; r < 10; r++ {
		if in.NodeDead(r, 6) != (r >= 4) {
			t.Errorf("round %d: NodeDead = %v", r, in.NodeDead(r, 6))
		}
		if in.NodeDead(r, 5) {
			t.Errorf("round %d: wrong node dead", r)
		}
	}
	// Earliest crash round wins on duplicates.
	in.Crash(6, 2)
	if !in.NodeDead(2, 6) {
		t.Error("earlier crash round ignored")
	}
	in.Crash(6, 9)
	if !in.NodeDead(2, 6) {
		t.Error("later duplicate crash overwrote the earlier round")
	}
}

func TestDistanceLoss(t *testing.T) {
	// Edge length drives loss through the gray-zone model: a short link is
	// perfect, a full-range link lossy.
	dist := func(e routing.Edge) float64 {
		if e.From == 0 {
			return 10
		}
		return 49
	}
	in := New(3).WithDistanceLoss(dist, func(d float64) float64 {
		return radio.LossForDistance(d, 50, 0.5)
	})
	short := routing.Edge{From: 0, To: 1}
	long := routing.Edge{From: 1, To: 2}
	if got := in.LinkLoss(short); got != 0 {
		t.Errorf("short link loss = %v, want 0", got)
	}
	if got := in.LinkLoss(long); got <= 0.3 {
		t.Errorf("long link loss = %v, want near max", got)
	}
	for r := 0; r < 20; r++ {
		if !in.Deliver(r, short, 0) {
			t.Fatal("perfect link dropped")
		}
	}
}

func TestValidate(t *testing.T) {
	if err := New(0).Crash(1, -1).Validate(); err == nil {
		t.Error("negative crash round accepted")
	}
	if err := New(0).AddOutage(routing.Edge{From: 0, To: 1}, 0, 0).Validate(); err == nil {
		t.Error("zero-length outage accepted")
	}
	ok := New(0).Crash(1, 3).AddOutage(routing.Edge{From: 0, To: 1}, 2, 4)
	if err := ok.Validate(); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if ok.Crashes()[graph.NodeID(1)] != 3 {
		t.Error("Crashes() lost the schedule")
	}
}

func TestReviveMakesCrashTransient(t *testing.T) {
	in := New(0).Crash(6, 4).Revive(6, 9)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 14; r++ {
		want := r >= 4 && r < 9
		if in.NodeDead(r, 6) != want {
			t.Errorf("round %d: NodeDead = %v, want %v", r, !want, want)
		}
	}
	if got := in.Revives()[graph.NodeID(6)]; got != 9 {
		t.Errorf("Revives() = %d, want 9", got)
	}
}

func TestReviveValidate(t *testing.T) {
	if err := New(0).Revive(3, 5).Validate(); err == nil {
		t.Error("revive of a never-crashed node accepted")
	}
	if err := New(0).Crash(3, 5).Revive(3, 5).Validate(); err == nil {
		t.Error("revive at the crash round accepted")
	}
	if err := New(0).Crash(3, 5).Revive(3, 4).Validate(); err == nil {
		t.Error("revive before the crash accepted")
	}
	if err := New(0).Crash(3, 5).Revive(3, 6).Validate(); err != nil {
		t.Errorf("valid revive rejected: %v", err)
	}
}

func TestPartitionCutsOnlyCrossingLinks(t *testing.T) {
	in := New(0).AddPartition([]graph.NodeID{2, 3}, 5, 3)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	crossing := routing.Edge{From: 1, To: 2}
	internal := routing.Edge{From: 2, To: 3}
	outside := routing.Edge{From: 0, To: 1}
	for r := 0; r < 12; r++ {
		want := r >= 5 && r < 8
		if in.LinkDown(r, crossing) != want {
			t.Errorf("round %d: crossing link down = %v, want %v", r, !want, want)
		}
		// Both directions of a crossing link are severed.
		if in.LinkDown(r, routing.Edge{From: 2, To: 1}) != want {
			t.Errorf("round %d: partition not symmetric", r)
		}
		if in.LinkDown(r, internal) || in.LinkDown(r, outside) {
			t.Errorf("round %d: non-crossing link severed", r)
		}
		if in.PartitionActive(r) != want {
			t.Errorf("round %d: PartitionActive = %v, want %v", r, !want, want)
		}
		if want && in.Deliver(r, crossing, 0) {
			t.Errorf("round %d: delivery across the cut", r)
		}
	}
	ps := in.Partitions()
	if len(ps) != 1 || len(ps[0].Side) != 2 || ps[0].Side[0] != 2 || ps[0].Side[1] != 3 {
		t.Errorf("Partitions() = %+v", ps)
	}
}

func TestPartitionValidate(t *testing.T) {
	if err := New(0).AddPartition(nil, 2, 3).Validate(); err == nil {
		t.Error("empty partition side accepted")
	}
	if err := New(0).AddPartition([]graph.NodeID{1}, -1, 3).Validate(); err == nil {
		t.Error("negative partition start accepted")
	}
	if err := New(0).AddPartition([]graph.NodeID{1}, 2, 0).Validate(); err == nil {
		t.Error("zero-length partition accepted")
	}
}

func TestLossScheduleValidateAndClamp(t *testing.T) {
	if err := New(0).WithUniformLoss(math.NaN()).Validate(); err == nil {
		t.Error("NaN loss probability accepted")
	}
	if err := New(0).WithUniformLoss(-0.1).Validate(); err == nil {
		t.Error("negative loss probability accepted")
	}
	if err := New(0).WithUniformLoss(1).Validate(); err == nil {
		t.Error("certain loss accepted")
	}
	if err := New(0).WithUniformLoss(0.999).Validate(); err != nil {
		t.Errorf("valid loss rejected: %v", err)
	}
	// A later explicit schedule replaces the uniform one in Validate's eyes.
	if err := New(0).WithUniformLoss(2).WithLoss(func(routing.Edge) float64 { return 0.1 }).Validate(); err != nil {
		t.Errorf("replaced uniform loss still validated: %v", err)
	}

	e := routing.Edge{From: 0, To: 1}
	clamp := func(p float64) float64 {
		return New(0).WithLoss(func(routing.Edge) float64 { return p }).LinkLoss(e)
	}
	if got := clamp(math.NaN()); got != 0 {
		t.Errorf("NaN clamped to %v, want 0", got)
	}
	if got := clamp(-0.5); got != 0 {
		t.Errorf("negative clamped to %v, want 0", got)
	}
	if got := clamp(1.5); got >= 1 || got < 0.999 {
		t.Errorf("over-unity clamped to %v, want just below 1", got)
	}
	// Even a clamped certain-loss schedule draws independently: with the
	// probability pinned below 1 every attempt still consults the hash, so
	// ARQ never silently degenerates into a guaranteed black hole.
	in := New(0).WithLoss(func(routing.Edge) float64 { return 7 })
	for r := 0; r < 10; r++ {
		if in.Deliver(r, e, 0) {
			t.Fatalf("round %d: delivery at near-certain loss", r)
		}
	}
}

func TestGrowSide(t *testing.T) {
	// Path 0—1—2—3—4 plus an isolated 5.
	g := graph.NewUndirected(6)
	for i := 0; i < 4; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	side, err := GrowSide(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// BFS from 2 expands ascending: 1 then 3.
	want := []graph.NodeID{1, 2, 3}
	if len(side) != len(want) {
		t.Fatalf("side = %v, want %v", side, want)
	}
	for i := range want {
		if side[i] != want[i] {
			t.Fatalf("side = %v, want %v", side, want)
		}
	}
	if _, err := GrowSide(g, 5, 2); err == nil {
		t.Error("side larger than the seed's component accepted")
	}
	if _, err := GrowSide(g, 9, 1); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := GrowSide(g, 0, 0); err == nil {
		t.Error("zero size accepted")
	}
	// From seed 1 a side of 3 is {0, 1, 2}; seed 2 gives the first one
	// that leaves node 0 out.
	if side, err := BaseFreeSide(g, 3); err != nil || !slices.Equal(side, want) {
		t.Errorf("BaseFreeSide = %v, %v; want %v", side, err, want)
	}
	if _, err := BaseFreeSide(g, 5); err == nil {
		t.Error("side that must include node 0 accepted")
	}
}
