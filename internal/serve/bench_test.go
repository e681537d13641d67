package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkCachedCreate measures one in-process session create on a warm
// plan cache: decode, cache hit, binding a session to the entry's shared
// program, registration. Created sessions are destroyed off the clock so
// the registry stays small.
func BenchmarkCachedCreate(b *testing.B) {
	s, err := NewServer(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	body := createBody(1)
	create := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body)))
		if rec.Code != http.StatusCreated {
			b.Fatalf("create: status %d: %s", rec.Code, rec.Body)
		}
	}
	destroyAll := func() {
		for _, sess := range s.reg.snapshot() {
			if err := s.reg.destroy(sess.id); err != nil {
				b.Fatal(err)
			}
		}
	}
	create() // warm: optimize and compile the plan once
	destroyAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		create()
		b.StopTimer()
		destroyAll()
		b.StartTimer()
	}
}
