package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"m2m/internal/serve"
)

// loopback serves a serve.Server over a real TCP listener on 127.0.0.1.
// The server behind it can be swapped between cold_sweep passes, and a
// tracer can be attached to record one span per handled request.
type loopback struct {
	base   string
	hs     *http.Server
	done   chan struct{}
	cur    atomic.Pointer[backend]
	tracer atomic.Pointer[tracer]
}

// backend is one serve.Server with its handler built once.
type backend struct {
	srv *serve.Server
	h   http.Handler
}

func newBackend() (*backend, error) {
	srv, err := serve.NewServer(serve.Config{})
	if err != nil {
		return nil, err
	}
	return &backend{srv: srv, h: srv.Handler()}, nil
}

func startLoopback() (*loopback, error) {
	be, err := newBackend()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		be.srv.Close()
		return nil, err
	}
	lb := &loopback{base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	lb.cur.Store(be)
	lb.hs = &http.Server{Handler: lb}
	go func() {
		defer close(lb.done)
		_ = lb.hs.Serve(ln)
	}()
	return lb, nil
}

func (lb *loopback) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := lb.cur.Load().h
	tr := lb.tracer.Load()
	if tr == nil {
		h.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
	sp := tr.begin("serve.handler", r.Header.Get(hdrRequest), parent)
	h.ServeHTTP(w, r)
	tr.end(sp)
}

// swap installs a fresh server and returns the old one's final stats.
func (lb *loopback) swap() (serve.StatsResponse, error) {
	be, err := newBackend()
	if err != nil {
		return serve.StatsResponse{}, err
	}
	old := lb.cur.Swap(be)
	st, err := statsOf(old.h)
	old.srv.Close()
	return st, err
}

// close stops the listener, every connection and the current server, and
// waits for the accept loop to end.
func (lb *loopback) close() {
	_ = lb.hs.Close()
	<-lb.done
	lb.cur.Load().srv.Close()
}

// statsOf reads /v1/stats in process.
func statsOf(h http.Handler) (serve.StatsResponse, error) {
	var st serve.StatsResponse
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", rec.Code)
	}
	return st, json.Unmarshal(rec.Body.Bytes(), &st)
}

func addStats(a, b serve.StatsResponse) serve.StatsResponse {
	a.Created += b.Created
	a.Steps += b.Steps
	a.Rounds += b.Rounds
	a.Sweeps += b.Sweeps
	a.Shed += b.Shed
	a.Panics += b.Panics
	a.Timeouts += b.Timeouts
	a.PlanCacheHits += b.PlanCacheHits
	a.PlanCacheMisses += b.PlanCacheMisses
	a.PlanCacheDedups += b.PlanCacheDedups
	return a
}

// Headers carrying the client span to the loopback handler span.
const (
	hdrRequest = "X-Request-Id"
	hdrSpan    = "X-Bench-Span"
)

// client is one closed-loop client with its own connection pool. It never
// retries: a transport error, a non-2xx status or an undecodable reply
// counts as a failed request.
type client struct {
	id     int
	g      gen
	base   string
	hc     *http.Client
	tr     *tracer
	ids    map[int]string
	lat    map[string]*hist // µs, successful requests only
	rounds int64            // rounds (or batched sweep seeds) completed
	start  time.Time        // start of the current phase
	first  int              // index of the current phase's first operation
	slice  time.Duration    // slice length of the current phase
	slices []*slice         // per-slice measurements of the current phase
	tried  int
	failed int
	errs   []string
	nreq   int
	next   int // index of the client's next operation
	rec    *recorder
}

func newClient(id int, g gen, base string) *client {
	tp := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	return &client{
		id:   id,
		g:    g,
		base: base,
		hc:   &http.Client{Transport: tp, Timeout: 60 * time.Second},
		ids:  make(map[int]string),
		lat:  make(map[string]*hist),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) fail(err error) error {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
	return err
}

// do sends one request and decodes a 2xx reply into out.
func (c *client) do(kind, method, path string, body []byte, out interface{}) error {
	c.tried++
	c.nreq++
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return c.fail(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var sp int
	if c.tr != nil {
		rid := fmt.Sprintf("c%d-%d", c.id, c.nreq)
		sp = c.tr.begin("client."+kind, rid, 0)
		req.Header.Set(hdrRequest, rid)
		req.Header.Set(hdrSpan, strconv.Itoa(sp))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t0)
	c.tr.end(sp)
	if err != nil {
		return c.fail(err)
	}
	if resp.StatusCode/100 != 2 {
		return c.fail(fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data)))
	}
	addTo(c.lat, kind, us(d))
	if sl := c.current(); sl != nil {
		addTo(sl.lat, kind, us(d))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return c.fail(fmt.Errorf("%s %s: decoding reply: %w", method, path, err))
		}
	}
	return nil
}

// slice is one fixed-length interval of a timed phase. Metrics are taken
// per slice and reported as the median over slices, so a short stall of
// the host moves one slice, not the result.
type slice struct {
	lat    map[string]*hist
	rounds int64
	dur    float64 // seconds
}

func addTo(m map[string]*hist, kind string, v float64) {
	h := m[kind]
	if h == nil {
		h = new(hist)
		m[kind] = h
	}
	h.add(v)
}

// current returns the slice the present request falls in, or nil when the
// phase is not sliced. On cold_sweep a slice is one pass.
func (c *client) current() *slice {
	var k int
	switch {
	case c.g.workload == "cold_sweep":
		k = (c.next - c.first) / sweepsPerPass
	case c.slice > 0:
		k = int(time.Since(c.start) / c.slice)
	default:
		return nil
	}
	for len(c.slices) <= k {
		c.slices = append(c.slices, &slice{lat: map[string]*hist{}})
	}
	return c.slices[k]
}

func (c *client) addRounds(n int) {
	c.rounds += int64(n)
	if sl := c.current(); sl != nil {
		sl.rounds += int64(n)
	}
}

// exec sends one generated request; op is the client's operation index
// (-1 during setup).
func (c *client) exec(r request, op int) error {
	switch r.Kind {
	case kindCreate:
		var resp serve.CreateSessionResponse
		if err := c.do(kindCreate, http.MethodPost, "/v1/sessions", r.Body, &resp); err != nil {
			return err
		}
		c.ids[r.Slot] = resp.ID
		if c.rec != nil {
			c.rec.created(c.id, op, r)
		}
	case kindStep:
		var resp serve.StepResponse
		if err := c.do(kindStep, http.MethodPost, "/v1/sessions/"+c.ids[r.Slot]+"/step", r.Body, &resp); err != nil {
			return err
		}
		c.addRounds(len(resp.Events))
		if c.rec != nil {
			c.rec.stepped(c.id, op, r, resp.Events)
		}
	case kindDestroy:
		if err := c.do(kindDestroy, http.MethodDelete, "/v1/sessions/"+c.ids[r.Slot], nil, nil); err != nil {
			return err
		}
		delete(c.ids, r.Slot)
	case kindSweep:
		var resp serve.SweepResponse
		if err := c.do(kindSweep, http.MethodPost, "/v1/sweep", r.Body, &resp); err != nil {
			return err
		}
		for _, v := range resp.Variants {
			c.addRounds(len(v.Results))
		}
		if c.rec != nil {
			c.rec.swept(c.id, op, r, &resp)
		}
	default:
		return fmt.Errorf("unknown request kind %q", r.Kind)
	}
	return nil
}

// runOp sends every request of one operation; a failed request skips the
// rest of the operation.
func (c *client) runOp(op int) {
	for _, r := range c.g.op(c.id, op) {
		if c.exec(r, op) != nil {
			return
		}
	}
}

// barrier is a reusable two-party rendezvous; the last arrival runs fn
// and its verdict is returned to every party.
type barrier struct {
	mu      sync.Mutex
	n, seen int
	phase   int
	verdict bool
	cond    *sync.Cond
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait(fn func() bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	phase := b.phase
	b.seen++
	if b.seen == b.n {
		b.verdict = fn()
		b.seen = 0
		b.phase++
		b.cond.Broadcast()
		return b.verdict
	}
	for phase == b.phase {
		b.cond.Wait()
	}
	return b.verdict
}

// phaseResult is what one timed closed-loop phase measured.
type phaseResult struct {
	wall   time.Duration
	lat    map[string]*hist
	slices []*slice // complete slices, clients merged
	tried  int
	failed int
	errs   []string
	ops    int
	rounds int64               // rounds (or batched sweep seeds) completed
	stats  serve.StatsResponse // server counters accumulated over the phase
}

// sliceLength is the slice length of a timed phase: one second. On
// cold_sweep, whose requests take a fifth of a second, slices are passes.
func sliceLength(seconds float64) time.Duration {
	if seconds < 1 {
		return 0
	}
	return time.Second
}

// runPhase drives the two closed-loop clients until the deadline has
// passed and each has completed minOps operations in all.
func runPhase(g gen, lb *loopback, clients []*client, seconds float64, minOps int) (*phaseResult, error) {
	before, err := statsOf(lb.cur.Load().h)
	if err != nil {
		return nil, err
	}
	var swapped serve.StatsResponse
	var swapErr error
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	bar := newBarrier(len(clients))
	var wg sync.WaitGroup
	opsBefore := 0
	sliceLen := sliceLength(seconds)
	for _, c := range clients {
		opsBefore += c.next
		c.start, c.first, c.slice, c.slices, c.rounds = start, c.next, sliceLen, nil, 0
	}
	// passEnds holds the instants cold_sweep passes start and end. A phase
	// that begins mid-run begins at a pass boundary, whose barrier marks it.
	var passEnds []time.Time
	if clients[0].next == 0 {
		passEnds = append(passEnds, start)
	}
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for ; ; c.next++ {
				i := c.next
				if g.workload == "cold_sweep" && i > 0 && i%sweepsPerPass == 0 {
					stop := bar.wait(func() bool {
						passEnds = append(passEnds, time.Now())
						if i >= minOps && !time.Now().Before(deadline) {
							return true
						}
						st, err := lb.swap()
						if err != nil && swapErr == nil {
							swapErr = err
						}
						swapped = addStats(swapped, st)
						return false
					})
					if stop {
						return
					}
				} else if g.workload != "cold_sweep" && i >= minOps && !time.Now().Before(deadline) {
					return
				}
				c.runOp(i)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	if swapErr != nil {
		return nil, swapErr
	}
	after, err := statsOf(lb.cur.Load().h)
	if err != nil {
		return nil, err
	}
	res := &phaseResult{wall: wall, lat: map[string]*hist{}}
	var durs []float64 // seconds, one per complete slice
	switch {
	case g.workload == "cold_sweep":
		for k := 1; k < len(passEnds); k++ {
			durs = append(durs, passEnds[k].Sub(passEnds[k-1]).Seconds())
		}
	case sliceLen > 0:
		for k := 0; k < int(time.Duration(seconds*float64(time.Second))/sliceLen); k++ {
			durs = append(durs, sliceLen.Seconds())
		}
	}
	for k, d := range durs {
		merged := &slice{lat: map[string]*hist{}, dur: d}
		for _, c := range clients {
			if k >= len(c.slices) {
				continue
			}
			merged.rounds += c.slices[k].rounds
			for kind, h := range c.slices[k].lat {
				if merged.lat[kind] == nil {
					merged.lat[kind] = new(hist)
				}
				merged.lat[kind].merge(h)
			}
		}
		res.slices = append(res.slices, merged)
	}
	res.stats = addStats(swapped, after)
	res.stats = subStats(res.stats, before)
	res.ops = -opsBefore
	for _, c := range clients {
		res.ops += c.next
		res.rounds += c.rounds
		res.tried += c.tried
		res.failed += c.failed
		res.errs = append(res.errs, c.errs...)
		for k, v := range c.lat {
			if res.lat[k] == nil {
				res.lat[k] = new(hist)
			}
			res.lat[k].merge(v)
		}
		c.tried, c.failed, c.errs, c.lat = 0, 0, nil, make(map[string]*hist)
		c.slice, c.slices = 0, nil
	}
	return res, nil
}

func subStats(a, b serve.StatsResponse) serve.StatsResponse {
	b.Created, b.Steps, b.Rounds, b.Sweeps = -b.Created, -b.Steps, -b.Rounds, -b.Sweeps
	b.Shed, b.Panics, b.Timeouts = -b.Shed, -b.Panics, -b.Timeouts
	b.PlanCacheHits, b.PlanCacheMisses, b.PlanCacheDedups = -b.PlanCacheHits, -b.PlanCacheMisses, -b.PlanCacheDedups
	return addStats(a, b)
}

// recorder keeps what the correctness gate and the output metrics need:
// a digest of each client's first windowOps operations, the energy and
// freshness totals over that window, and the full event history of the
// seeded verification sample.
type recorder struct {
	g      gen
	window int

	mu       sync.Mutex
	digests  []hash.Hash
	energyJ  float64
	rounds   int // rounds (or batched seeds) inside the window
	fresh    int
	destRnds int

	sessions map[sessKey]*sessionLog
	sweeps   []*sweepLog
	passes   map[int][][]byte // cold_sweep: per-client digest of each pass
	passHash []hash.Hash
}

type sessKey struct{ slot, gen int }

// sessionLog is a sampled session's served history in fixed memory: a
// running digest of its rounds and the ranges of round numbers it covers.
type sessionLog struct {
	create []byte
	h      hash.Hash
	runs   [][2]int // inclusive round ranges, ascending
	n      int
}

// digestRound feeds one round's observable outputs into h; the served
// history and the local replay are digested the same way.
func digestRound(h hash.Hash, round int, valuesHash string, energyJ float64, fresh int) {
	putI(h, int64(round))
	h.Write([]byte(valuesHash))
	putF(h, energyJ)
	putI(h, int64(fresh))
}

func (lg *sessionLog) add(ev *serve.StepEvent) {
	digestRound(lg.h, ev.Round, ev.ValuesHash, ev.EnergyJ, ev.Fresh)
	lg.n++
	if k := len(lg.runs) - 1; k >= 0 && lg.runs[k][1]+1 == ev.Round {
		lg.runs[k][1] = ev.Round
		return
	}
	lg.runs = append(lg.runs, [2]int{ev.Round, ev.Round})
}

type sweepLog struct {
	req  *serve.SweepRequest
	resp *serve.SweepResponse
}

func newRecorder(g gen) *recorder {
	r := &recorder{
		g:        g,
		window:   g.windowOps(),
		sessions: map[sessKey]*sessionLog{},
		passes:   map[int][][]byte{},
	}
	for c := 0; c < numClients; c++ {
		r.digests = append(r.digests, sha256.New())
		r.passHash = append(r.passHash, sha256.New())
	}
	return r
}

// verifySlot is the session slot of client c whose every generation the
// correctness gate replays (steady and faulty).
func (g gen) verifySlot(c int) int {
	return c*sessionsPerClient + int(mix(g.seed, tagSample, int64(c))%sessionsPerClient)
}

// verifySession reports whether the session created in slot at
// generation gn belongs to the verification sample: on steady and faulty
// one slot per client, on churn about one cycle in sixteen.
func (g gen) verifySession(slot, gn int) bool {
	switch g.workload {
	case "steady", "faulty":
		return slot == g.verifySlot(slot/sessionsPerClient)
	case "churn":
		return g.sampled(16, slot, gn)
	}
	return false
}

// created starts the log of a sampled session. Only sessions created
// during setup or inside the digest window are sampled, so the logs stay
// bounded however long the run.
func (r *recorder) created(c, op int, req request) {
	if op >= r.window || !r.g.verifySession(req.Slot, req.Gen) {
		return
	}
	r.mu.Lock()
	r.sessions[sessKey{req.Slot, req.Gen}] = &sessionLog{create: req.Body, h: sha256.New()}
	r.mu.Unlock()
}

func putF(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func putI(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func (r *recorder) stepped(c, op int, req request, events []*serve.StepEvent) {
	inWindow := op >= 0 && op < r.window
	r.mu.Lock()
	defer r.mu.Unlock()
	if inWindow {
		h := r.digests[c]
		putI(h, int64(req.Slot))
		for _, ev := range events {
			putI(h, int64(ev.Round))
			h.Write([]byte(ev.ValuesHash))
			putF(h, ev.EnergyJ)
			putI(h, int64(ev.Fresh))
			putI(h, int64(ev.Stale))
			putI(h, int64(ev.Starved))
			r.energyJ += ev.EnergyJ
			r.rounds++
			r.fresh += ev.Fresh
			r.destRnds += ev.Fresh + ev.Stale + ev.Starved
		}
	}
	if lg := r.sessions[sessKey{req.Slot, req.Gen}]; lg != nil {
		for _, ev := range events {
			lg.add(ev)
		}
	}
}

func (r *recorder) swept(c, op int, req request, resp *serve.SweepResponse) {
	if op < 0 {
		return
	}
	h := r.passHash[c]
	for _, v := range resp.Variants {
		for _, res := range v.Results {
			putI(h, res.Seed)
			putF(h, res.EnergyJ)
			h.Write([]byte(res.ValuesHash))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if (op+1)%sweepsPerPass == 0 {
		r.passes[c] = append(r.passes[c], h.Sum(nil))
		h.Reset()
	}
	if op < 0 || op >= r.window {
		return
	}
	d := r.digests[c]
	for _, v := range resp.Variants {
		for _, res := range v.Results {
			putI(d, res.Seed)
			putF(d, res.EnergyJ)
			d.Write([]byte(res.ValuesHash))
			r.energyJ += res.EnergyJ
			r.rounds++
		}
	}
	// One sweep of each pass is kept for the local replay.
	if int(mix(r.g.seed, tagSample, int64(c))%sweepsPerPass) == op%sweepsPerPass {
		var sr serve.SweepRequest
		if err := json.Unmarshal(req.Body, &sr); err == nil {
			r.sweeps = append(r.sweeps, &sweepLog{req: &sr, resp: resp})
		}
	}
}

// badPasses counts cold_sweep passes whose outputs differ from the same
// client's first pass on the same inputs.
func (r *recorder) badPasses() int {
	bad := 0
	for _, ps := range r.passes {
		for k := sweepInputSets; k < len(ps); k++ {
			if !bytes.Equal(ps[k], ps[k%sweepInputSets]) {
				bad++
			}
		}
	}
	return bad
}

// digest combines the per-client window digests in client order.
func (r *recorder) digest() string {
	h := sha256.New()
	for _, d := range r.digests {
		h.Write(d.Sum(nil))
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// windowOps is the number of leading operations per client whose outputs
// are digested, run before the timed phase: about a second of work, so
// energy and freshness average over many sessions.
func (g gen) windowOps() int {
	switch g.workload {
	case "steady":
		return 2048
	case "faulty", "churn":
		return 1024
	}
	return sweepsPerPass * sweepInputSets
}
