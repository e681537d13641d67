package serve

import (
	"m2m"
	"m2m/internal/chaos"
)

// session builds the session sc describes, through the builder
// NewScenarioRun uses, on the entry's network, instance and plan (shared
// copy-on-write) and prog, a read-only program compiled from that plan.
func (e *planEntry) session(sc chaos.Scenario, prog *m2m.Program, gen m2m.ReadingGenerator) (*m2m.ResilientSession, error) {
	return m2m.NewScenarioSession(&sc, e.net, e.sessionSpecs(), e.kind, e.inst, prog, gen)
}

// BuildSession materializes a validated create request into a standalone
// ResilientSession, paying for its own optimization and compile — no
// cache, no server. The load harness uses it to replay a served session
// locally and compare value hashes round for round.
func BuildSession(req *CreateSessionRequest) (*m2m.ResilientSession, error) {
	entry, err := buildEntry(&req.Topology, &req.Workload, req.Router)
	if err != nil {
		return nil, err
	}
	prog, err := m2m.CompileProgram(entry.net, entry.plan)
	if err != nil {
		return nil, err
	}
	return entry.session(req.scenario(), prog, req.Readings.build(entry.net.Len()))
}
