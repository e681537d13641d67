// Command m2mload drives an m2md server with realistic multi-tenant
// load and misbehavior, and reports latency and throughput.
//
// Usage:
//
//	m2mload -addr http://localhost:8437 -sessions 100 -rounds 20
//	m2mload -sessions 200 -tenants 8 -loss 0.05        # chaos sessions
//	m2mload -chaos malformed -chaos-ops 50             # decoder abuse alongside load
//	m2mload -chaos slowloris                           # stalled writes
//	m2mload -chaos disconnect                          # mid-stream hangups
//	m2mload -verify -verify-max 4                      # local deterministic replay check
//	m2mload -sessions 50 -budget-p99-ms 500            # CI latency assertion
//
// Every request retries on 429/503 and transport errors with exponential
// backoff plus jitter, honoring Retry-After. -verify replays the first
// few sessions locally through the library and compares per-session value
// hashes — the server corrupting any session state fails the run.
// Exit status: 0 clean, 1 failed assertions or hard request failures,
// 2 bad flags.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"m2m/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "http://localhost:8437", "m2md base URL")
		sessions  = flag.Int("sessions", 10, "concurrent sessions to drive")
		rounds    = flag.Int("rounds", 20, "rounds per session")
		step      = flag.Int("step", 5, "rounds per step request")
		tenants   = flag.Int("tenants", 4, "distinct X-Tenant values to spread load over")
		nodes     = flag.Int("nodes", 0, "random topology size (0 = the 68-node GDI layout)")
		seed      = flag.Int64("seed", 1, "base seed; session i uses seed+i for readings/faults")
		loss      = flag.Float64("loss", 0, "per-session uniform link loss in [0,1)")
		timeoutMS = flag.Int("timeout-ms", 30000, "X-Timeout-Ms sent with every request")
		retries   = flag.Int("retries", 5, "max attempts per request (retry on 429/503/transport)")
		chaos     = flag.String("chaos", "none", "fault injection alongside load: none | malformed | slowloris | disconnect")
		chaosOps  = flag.Int("chaos-ops", 20, "how many chaos operations to issue")
		verify    = flag.Bool("verify", false, "replay sessions locally and compare value hashes")
		verifyMax = flag.Int("verify-max", 4, "sessions to verify (replay cost is a full local run each)")
		budgetP99 = flag.Float64("budget-p99-ms", 0, "fail (exit 1) if step p99 latency exceeds this many ms (0 = no assertion)")
	)
	flag.Parse()
	if err := validateFlags(*addr, *sessions, *rounds, *step, *tenants, *nodes,
		*loss, *timeoutMS, *retries, *chaos, *chaosOps, *verifyMax, *budgetP99); err != nil {
		fmt.Fprintf(os.Stderr, "m2mload: %v\n", err)
		os.Exit(2)
	}

	lc := &loadClient{
		base:      strings.TrimRight(*addr, "/"),
		hc:        &http.Client{Timeout: time.Duration(*timeoutMS)*time.Millisecond + 10*time.Second},
		retries:   *retries,
		timeoutMS: *timeoutMS,
	}

	cfg := runConfig{
		sessions: *sessions, rounds: *rounds, step: *step, tenants: *tenants,
		nodes: *nodes, seed: *seed, loss: *loss,
		chaos: *chaos, chaosOps: *chaosOps,
	}
	res := runLoad(lc, cfg)
	res.print(os.Stdout)

	exit := 0
	if res.hardFailures > 0 {
		fmt.Fprintf(os.Stderr, "m2mload: %d sessions failed outright\n", res.hardFailures)
		exit = 1
	}
	if *budgetP99 > 0 {
		if p99 := percentile(res.lat["step"], 99); p99 > *budgetP99 {
			fmt.Fprintf(os.Stderr, "m2mload: step p99 %.1fms exceeds budget %.1fms\n", p99, *budgetP99)
			exit = 1
		} else {
			fmt.Printf("latency budget ok: step p99 %.1fms <= %.1fms\n", p99, *budgetP99)
		}
	}
	if *verify {
		if bad := verifySessions(res, *verifyMax); bad > 0 {
			fmt.Fprintf(os.Stderr, "m2mload: %d sessions diverged from local replay\n", bad)
			exit = 1
		}
	}
	os.Exit(exit)
}

func validateFlags(addr string, sessions, rounds, step, tenants, nodes int,
	loss float64, timeoutMS, retries int, chaos string, chaosOps, verifyMax int,
	budgetP99 float64) error {
	u, err := url.Parse(addr)
	if err != nil || u.Scheme != "http" && u.Scheme != "https" || u.Host == "" {
		return fmt.Errorf("-addr %q is not an http(s) URL", addr)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-sessions", sessions}, {"-rounds", rounds}, {"-step", step},
		{"-tenants", tenants}, {"-retries", retries}} {
		if f.v < 1 {
			return fmt.Errorf("%s %d must be at least 1", f.name, f.v)
		}
	}
	if nodes < 0 {
		return fmt.Errorf("-nodes %d must not be negative", nodes)
	}
	if nodes == 1 {
		return fmt.Errorf("-nodes 1 is below the 2-node minimum")
	}
	if loss < 0 || loss >= 1 {
		return fmt.Errorf("-loss %g outside [0,1)", loss)
	}
	if timeoutMS < 1 {
		return fmt.Errorf("-timeout-ms %d must be at least 1", timeoutMS)
	}
	switch chaos {
	case "none", "malformed", "slowloris", "disconnect":
	default:
		return fmt.Errorf("unknown -chaos mode %q", chaos)
	}
	if chaosOps < 0 {
		return fmt.Errorf("-chaos-ops %d must not be negative", chaosOps)
	}
	if verifyMax < 1 {
		return fmt.Errorf("-verify-max %d must be at least 1", verifyMax)
	}
	if budgetP99 < 0 {
		return fmt.Errorf("-budget-p99-ms %g must not be negative", budgetP99)
	}
	return nil
}

// loadClient is the retrying HTTP client: 429/503 and transport errors
// back off exponentially (base 50ms, doubling, ±50% jitter, Retry-After
// honored) before giving up after the attempt budget.
type loadClient struct {
	base      string
	hc        *http.Client
	retries   int
	timeoutMS int
	shed      atomic.Int64
	retried   atomic.Int64
}

func (c *loadClient) do(method, path, tenant string, body []byte, rng *rand.Rand) (int, []byte, error) {
	var lastErr error
	for attempt := 0; attempt < c.retries; attempt++ {
		if attempt > 0 {
			c.retried.Add(1)
		}
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		req.Header.Set("X-Timeout-Ms", strconv.Itoa(c.timeoutMS))
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			backoff(rng, attempt, 0)
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			backoff(rng, attempt, 0)
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			c.shed.Add(1)
			lastErr = fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
			backoff(rng, attempt, retryAfter(resp))
			continue
		}
		return resp.StatusCode, data, nil
	}
	return 0, nil, fmt.Errorf("out of retries: %w", lastErr)
}

func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if sec, err := strconv.Atoi(s); err == nil && sec > 0 {
			return time.Duration(sec) * time.Second
		}
	}
	return 0
}

func backoff(rng *rand.Rand, attempt int, floor time.Duration) {
	d := 50 * time.Millisecond << attempt
	d += time.Duration(rng.Int63n(int64(d))) - d/2 // ±50% jitter
	if d < floor {
		d = floor
	}
	time.Sleep(d)
}

type runConfig struct {
	sessions, rounds, step, tenants, nodes int
	seed                                   int64
	loss                                   float64
	chaos                                  string
	chaosOps                               int
}

// sessionRecord is what one worker learns about its session — enough for
// the deterministic local replay check.
type sessionRecord struct {
	createReq *serve.CreateSessionRequest
	rounds    int
	finalHash string
}

type runResult struct {
	cfg          runConfig
	wall         time.Duration
	roundsDone   int64
	hardFailures int
	shed         int64
	retried      int64
	chaosIssued  int
	chaosBad     int
	lat          map[string][]float64 // ms, by request class
	records      []sessionRecord
}

func runLoad(lc *loadClient, cfg runConfig) *runResult {
	res := &runResult{cfg: cfg, lat: map[string][]float64{}, records: make([]sessionRecord, cfg.sessions)}
	var mu sync.Mutex
	record := func(class string, d time.Duration) {
		mu.Lock()
		res.lat[class] = append(res.lat[class], float64(d)/float64(time.Millisecond))
		mu.Unlock()
	}
	var roundsDone, failures atomic.Int64

	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		issued, bad := runChaos(lc, cfg)
		res.chaosIssued, res.chaosBad = issued, bad
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(i)*7919))
			tenant := fmt.Sprintf("t%d", i%cfg.tenants)
			rec, n, err := driveSession(lc, cfg, i, tenant, rng, record)
			roundsDone.Add(int64(n))
			if err != nil {
				failures.Add(1)
				fmt.Fprintf(os.Stderr, "m2mload: session %d: %v\n", i, err)
				return
			}
			res.records[i] = rec
		}(i)
	}
	wg.Wait()
	<-chaosDone
	res.wall = time.Since(start)
	res.roundsDone = roundsDone.Load()
	res.hardFailures = int(failures.Load())
	res.shed = lc.shed.Load()
	res.retried = lc.retried.Load()
	return res
}

func createRequest(cfg runConfig, i int) *serve.CreateSessionRequest {
	req := &serve.CreateSessionRequest{
		Topology: serve.TopologySpec{Kind: "gdi"},
		Workload: serve.WorkloadSpec{Generate: &serve.GenerateSpec{
			DestFraction: 0.2, SourcesPerDest: 8, Dispersion: 0.9, MaxHops: 4, Seed: cfg.seed,
		}},
		Readings: &serve.ReadingsSpec{Kind: "walk", Seed: cfg.seed + int64(i)},
	}
	if cfg.nodes > 0 {
		req.Topology = serve.TopologySpec{Kind: "random", Nodes: cfg.nodes, Seed: cfg.seed}
	}
	if cfg.loss > 0 {
		req.Faults = &serve.FaultsSpec{Seed: cfg.seed + int64(i), Loss: cfg.loss}
	}
	return req
}

func driveSession(lc *loadClient, cfg runConfig, i int, tenant string, rng *rand.Rand,
	record func(string, time.Duration)) (sessionRecord, int, error) {
	req := createRequest(cfg, i)
	body, err := json.Marshal(req)
	if err != nil {
		return sessionRecord{}, 0, err
	}
	t0 := time.Now()
	status, data, err := lc.do("POST", "/v1/sessions", tenant, body, rng)
	record("create", time.Since(t0))
	if err != nil {
		return sessionRecord{}, 0, err
	}
	if status != http.StatusCreated {
		return sessionRecord{}, 0, fmt.Errorf("create: status %d: %s", status, data)
	}
	var created serve.CreateSessionResponse
	if err := json.Unmarshal(data, &created); err != nil {
		return sessionRecord{}, 0, err
	}

	rec := sessionRecord{createReq: req}
	done := 0
	for done < cfg.rounds {
		n := cfg.step
		if rem := cfg.rounds - done; rem < n {
			n = rem
		}
		stepBody, _ := json.Marshal(serve.StepRequest{Rounds: n})
		t0 = time.Now()
		status, data, err = lc.do("POST", "/v1/sessions/"+created.ID+"/step", tenant, stepBody, rng)
		record("step", time.Since(t0))
		if err != nil {
			return rec, done, err
		}
		if status != http.StatusOK {
			return rec, done, fmt.Errorf("step: status %d: %s", status, data)
		}
		var sr serve.StepResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			return rec, done, err
		}
		done += len(sr.Events)
		if len(sr.Events) > 0 {
			rec.finalHash = sr.Events[len(sr.Events)-1].ValuesHash
		}
		if sr.Truncated {
			continue // deadline mid-batch; the retry continues where it left off
		}
	}
	rec.rounds = done

	t0 = time.Now()
	status, data, err = lc.do("DELETE", "/v1/sessions/"+created.ID, tenant, nil, rng)
	record("destroy", time.Since(t0))
	if err != nil {
		return rec, done, err
	}
	if status != http.StatusNoContent {
		return rec, done, fmt.Errorf("destroy: status %d: %s", status, data)
	}
	return rec, done, nil
}

// runChaos issues cfg.chaosOps misbehaving requests alongside the load
// and reports (issued, unexpected-outcome) counts. Every mode must leave
// the server serving — the caller's normal load is the real assertion.
func runChaos(lc *loadClient, cfg runConfig) (issued, bad int) {
	if cfg.chaos == "none" || cfg.chaosOps == 0 {
		return 0, 0
	}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	for i := 0; i < cfg.chaosOps; i++ {
		switch cfg.chaos {
		case "malformed":
			if !chaosMalformed(lc, rng, i) {
				bad++
			}
		case "slowloris":
			if !chaosSlowloris(lc) {
				bad++
			}
		case "disconnect":
			if !chaosDisconnect(lc, cfg, rng, i) {
				bad++
			}
		}
		issued++
		time.Sleep(20 * time.Millisecond)
	}
	return issued, bad
}

// chaosMalformed sends garbage payloads; anything but a clean 4xx is a
// server bug.
func chaosMalformed(lc *loadClient, rng *rand.Rand, i int) bool {
	payloads := [][]byte{
		[]byte(`{"topology":`),
		[]byte(`{"topology":{"kind":"gdi"},"unknown":1}`),
		[]byte(`[]`),
		[]byte(`{"topology":{"kind":"gdi"},"workload":{"specs":"5 = sum(1e309)"}}`),
		[]byte(strings.Repeat("[", 1000)),
		{0xff, 0xfe, 0x00},
	}
	status, _, err := lc.do("POST", "/v1/sessions", "chaos", payloads[i%len(payloads)], rng)
	if err != nil {
		return false
	}
	return status >= 400 && status < 500
}

// chaosSlowloris opens a raw connection, dribbles half a request header,
// stalls, and hangs up. The server's read-header timeout must reclaim the
// connection; success is simply the dial+write not breaking anything
// (the concurrent normal load asserts that).
func chaosSlowloris(lc *loadClient) bool {
	u, err := url.Parse(lc.base)
	if err != nil {
		return false
	}
	conn, err := net.DialTimeout("tcp", u.Host, 2*time.Second)
	if err != nil {
		return false
	}
	defer conn.Close()
	_, err = io.WriteString(conn, "POST /v1/sessions HTTP/1.1\r\nHost: "+u.Host+"\r\nContent-Le")
	if err != nil {
		return false
	}
	time.Sleep(300 * time.Millisecond)
	return true
}

// chaosDisconnect starts a long stream and hangs up after the first
// line; the server must stop simulating at the next round boundary and
// the session must remain usable (checked via a follow-up info request).
func chaosDisconnect(lc *loadClient, cfg runConfig, rng *rand.Rand, i int) bool {
	req := createRequest(cfg, 100000+i)
	body, _ := json.Marshal(req)
	status, data, err := lc.do("POST", "/v1/sessions", "chaos", body, rng)
	if err != nil || status != http.StatusCreated {
		return false
	}
	var created serve.CreateSessionResponse
	if json.Unmarshal(data, &created) != nil {
		return false
	}
	hr, err := http.NewRequest("GET", lc.base+"/v1/sessions/"+created.ID+"/stream?rounds=1000", nil)
	if err != nil {
		return false
	}
	hr.Header.Set("X-Tenant", "chaos")
	resp, err := lc.hc.Do(hr)
	if err != nil {
		return false
	}
	buf := make([]byte, 256)
	_, _ = resp.Body.Read(buf)
	resp.Body.Close() // mid-stream hangup
	status, _, err = lc.do("GET", "/v1/sessions/"+created.ID, "chaos", nil, rng)
	if err != nil || status != http.StatusOK {
		return false
	}
	status, _, err = lc.do("DELETE", "/v1/sessions/"+created.ID, "chaos", nil, rng)
	return err == nil && status == http.StatusNoContent
}

// verifySessions replays up to max completed sessions locally through the
// library — same creation parameters, same number of rounds — and
// compares the final value hash. Any divergence means the server
// corrupted session state (the sessions are deterministic).
func verifySessions(res *runResult, max int) int {
	bad, checked := 0, 0
	for i := range res.records {
		rec := &res.records[i]
		if rec.createReq == nil || rec.rounds == 0 || rec.finalHash == "" {
			continue
		}
		if checked == max {
			break
		}
		checked++
		hash, err := replayLocally(rec.createReq, rec.rounds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "m2mload: verify session %d: %v\n", i, err)
			bad++
			continue
		}
		if hash != rec.finalHash {
			fmt.Fprintf(os.Stderr, "m2mload: verify session %d: hash %s, local replay %s\n", i, rec.finalHash, hash)
			bad++
		}
	}
	fmt.Printf("verify: %d sessions replayed locally, %d diverged\n", checked, bad)
	return bad
}

func replayLocally(req *serve.CreateSessionRequest, rounds int) (string, error) {
	sess, err := serve.BuildSession(req)
	if err != nil {
		return "", err
	}
	var hash string
	for i := 0; i < rounds; i++ {
		st, err := sess.Step()
		if err != nil {
			return "", err
		}
		hash = serve.HashValues(st.Values)
	}
	return hash, nil
}

func percentile(ms []float64, p float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	idx := int(math.Ceil(float64(len(s))*p/100)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "sessions=%d rounds/session=%d wall=%.2fs rounds=%d (%.1f rounds/s)\n",
		r.cfg.sessions, r.cfg.rounds, r.wall.Seconds(), r.roundsDone,
		float64(r.roundsDone)/r.wall.Seconds())
	fmt.Fprintf(w, "shed(429/503)=%d retried=%d failures=%d\n", r.shed, r.retried, r.hardFailures)
	for _, class := range []string{"create", "step", "destroy"} {
		l := r.lat[class]
		if len(l) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-8s n=%-6d p50=%.1fms p95=%.1fms p99=%.1fms\n",
			class, len(l), percentile(l, 50), percentile(l, 95), percentile(l, 99))
	}
	if r.chaosIssued > 0 {
		fmt.Fprintf(w, "chaos(%s): %d ops, %d unexpected outcomes\n", r.cfg.chaos, r.chaosIssued, r.chaosBad)
	}
}
