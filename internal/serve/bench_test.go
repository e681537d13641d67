package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// cachedCreate returns an in-process server whose plan cache already
// holds the createBody(1) plan, a create of that session, and a destroy
// of every live session.
func cachedCreate(tb testing.TB) (create, destroyAll func()) {
	s, err := NewServer(Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	h := s.Handler()
	body := createBody(1)
	create = func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body)))
		if rec.Code != http.StatusCreated {
			tb.Fatalf("create: status %d: %s", rec.Code, rec.Body)
		}
	}
	destroyAll = func() {
		for _, sess := range s.reg.snapshot() {
			if err := s.reg.destroy(sess.id); err != nil {
				tb.Fatal(err)
			}
		}
	}
	create() // warm: optimize and compile the plan once
	destroyAll()
	return create, destroyAll
}

// BenchmarkCachedCreate measures one in-process session create on a warm
// plan cache: decode, cache hit, binding a session to the entry's shared
// program, registration. Created sessions are destroyed off the clock so
// the registry stays small.
func BenchmarkCachedCreate(b *testing.B) {
	create, destroyAll := cachedCreate(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		create()
		b.StopTimer()
		destroyAll()
		b.StartTimer()
	}
}

// TestCachedCreateAllocs caps the allocations of a create on a warm plan
// cache at the count measured, as BenchmarkCachedCreate counts them (the
// destroy that keeps the registry small is not counted). Measured like
// testing.AllocsPerRun: one P, GC off.
func TestCachedCreateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	create, destroyAll := cachedCreate(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 100
	var before, after runtime.MemStats
	mallocs := uint64(0)
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		create()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		destroyAll()
	}
	const ceiling = 146
	if got := mallocs / runs; got > ceiling {
		t.Fatalf("cached create allocated %d objects, want <= %d", got, ceiling)
	}
}
