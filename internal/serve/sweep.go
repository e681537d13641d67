package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"m2m"
	"m2m/internal/graph"
	"m2m/internal/readings"
)

// SweepSeedResult is one (seed, variant) cell of a sweep: the run's total
// radio energy and the digest of its final destination values.
type SweepSeedResult struct {
	Seed       int64   `json:"seed"`
	EnergyJ    float64 `json:"energyJ"`
	ValuesHash string  `json:"valuesHash"`
}

// SweepVariantResult is one arm of the sweep, seeds ascending.
type SweepVariantResult struct {
	Name    string            `json:"name"`
	Results []SweepSeedResult `json:"results"`
}

// SweepResponse is the POST /v1/sweep payload.
type SweepResponse struct {
	Nodes    int                  `json:"nodes"`
	Variants []SweepVariantResult `json:"variants"`
	// Truncated is set when the deadline expired mid-sweep; Variants
	// holds the arms that completed.
	Truncated bool `json:"truncated,omitempty"`
}

// handleSweep is POST /v1/sweep: a seed range crossed with chaos/battery
// variants, every arm sharing one cached plan. Each seed drives the
// random-walk reading generator (and, in chaos arms, the fault injector),
// so the whole sweep is reproducible from the request alone. Every arm
// runs off one compiled program: fault-free single-round arms fan all
// seeds through one engine's RunConcurrent; stateful arms run per-seed
// resilient sessions bound to the program on a bounded worker pool.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("serve: draining, not accepting sweeps"))
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeSweep(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if n := req.Topology.size(); n > s.cfg.MaxNodes {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: %d nodes exceed this server's limit of %d", n, s.cfg.MaxNodes))
		return
	}
	if seeds := req.SeedTo - req.SeedFrom; seeds > int64(s.cfg.MaxSweepSeeds) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: %d seeds exceed this server's limit of %d", seeds, s.cfg.MaxSweepSeeds))
		return
	}
	key, err := req.PlanKey()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	entry, err := s.cache.get(key, func() (*planEntry, error) {
		return buildEntry(&req.Topology, &req.Workload, req.Router)
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// One request-local program serves every variant and seed. It is
	// deliberately not stored in the entry: the cache never evicts, and
	// sweeps mostly touch plans no session will ever use.
	prog, err := m2m.CompileProgram(entry.net, entry.plan)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}

	ctx := r.Context()
	resp := SweepResponse{Nodes: entry.net.Len()}
	for i := range req.Variants {
		v := &req.Variants[i]
		var results []SweepSeedResult
		if v.batched() {
			results, err = s.sweepBatched(ctx, entry, prog, req)
		} else {
			results, err = s.sweepSessions(ctx, entry, prog, req, v)
		}
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				if errors.Is(err, context.DeadlineExceeded) {
					s.timeouts.Add(1)
				}
				resp.Truncated = true
				break
			}
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		resp.Variants = append(resp.Variants, SweepVariantResult{Name: v.Name, Results: results})
	}
	s.sweeps.Add(1)
	if resp.Truncated && ctx.Err() == context.Canceled {
		return // client gone
	}
	writeJSON(w, http.StatusOK, resp)
}

// sweepSeedReadings is the sweep's per-seed reading model: the
// random-walk generator seeded with the sweep seed.
func sweepSeedReadings(n int, seed int64) m2m.ReadingGenerator {
	return readings.NewRandomWalk(n, seed, 20, 0.5)
}

// sweepBatched fans every seed's round through one engine bound to the
// sweep's program — RunConcurrent reuses pooled round state across the
// whole batch and honors ctx between rounds.
func (s *Server) sweepBatched(ctx context.Context, entry *planEntry, prog *m2m.Program, req *SweepRequest) ([]SweepSeedResult, error) {
	eng := prog.Bind(nil, nil)
	n := entry.net.Len()
	seeds := req.SeedTo - req.SeedFrom
	batch := make([]map[graph.NodeID]float64, seeds)
	for i := int64(0); i < seeds; i++ {
		batch[i] = sweepSeedReadings(n, req.SeedFrom+i).Next()
	}
	rounds, err := eng.RunConcurrent(ctx, batch, s.cfg.SweepWorkers)
	if err != nil {
		return nil, err
	}
	results := make([]SweepSeedResult, seeds)
	for i, rr := range rounds {
		results[i] = SweepSeedResult{
			Seed:       req.SeedFrom + int64(i),
			EnergyJ:    rr.EnergyJ,
			ValuesHash: valuesHash(rr.Values),
		}
	}
	return results, nil
}

// sweepSessions runs one resilient session per seed on a bounded worker
// pool: chaos and battery arms carry state across rounds, so seeds are
// the only parallel axis.
func (s *Server) sweepSessions(ctx context.Context, entry *planEntry, prog *m2m.Program, req *SweepRequest, v *SweepVariant) ([]SweepSeedResult, error) {
	n := entry.net.Len()
	seeds := int(req.SeedTo - req.SeedFrom)
	rounds := v.Rounds
	if rounds == 0 {
		rounds = 1
	}
	results := make([]SweepSeedResult, seeds)
	errs := make([]error, seeds)
	work := make(chan int)
	workers := s.cfg.SweepWorkers
	if workers > seeds {
		workers = seeds
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				seed := req.SeedFrom + int64(i)
				results[i], errs[i] = s.runSweepSession(ctx, entry, prog, v, n, seed, rounds)
			}
		}()
	}
feed:
	for i := 0; i < seeds; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func (s *Server) runSweepSession(ctx context.Context, entry *planEntry, prog *m2m.Program, v *SweepVariant, n int, seed int64, rounds int) (SweepSeedResult, error) {
	sess, err := entry.session(v.scenario(n, seed), prog, sweepSeedReadings(n, seed))
	if err != nil {
		return SweepSeedResult{}, err
	}
	var last *m2m.ResilientStep
	for i := 0; i < rounds; i++ {
		if err := ctx.Err(); err != nil {
			return SweepSeedResult{}, err
		}
		st, err := sess.Step()
		if err != nil {
			return SweepSeedResult{}, err
		}
		last = st
	}
	return SweepSeedResult{
		Seed:       seed,
		EnergyJ:    sess.TotalEnergyJ(),
		ValuesHash: valuesHash(last.Values),
	}, nil
}
