package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	type args struct {
		addr                                   string
		sessions, rounds, step, tenants, nodes int
		loss                                   float64
		timeoutMS, retries                     int
		chaos                                  string
		chaosOps, verifyMax                    int
		budgetP99                              float64
	}
	ok := func() args {
		return args{"http://localhost:8437", 10, 20, 5, 4, 0, 0, 30000, 5, "none", 20, 4, 0}
	}
	call := func(a args) error {
		return validateFlags(a.addr, a.sessions, a.rounds, a.step, a.tenants, a.nodes,
			a.loss, a.timeoutMS, a.retries, a.chaos, a.chaosOps, a.verifyMax, a.budgetP99)
	}
	if err := call(ok()); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*args)
		want string
	}{
		{"bad addr", func(a *args) { a.addr = "localhost:8437" }, "-addr"},
		{"ftp addr", func(a *args) { a.addr = "ftp://x" }, "-addr"},
		{"zero sessions", func(a *args) { a.sessions = 0 }, "-sessions"},
		{"zero rounds", func(a *args) { a.rounds = 0 }, "-rounds"},
		{"zero step", func(a *args) { a.step = 0 }, "-step"},
		{"zero tenants", func(a *args) { a.tenants = 0 }, "-tenants"},
		{"negative nodes", func(a *args) { a.nodes = -5 }, "-nodes"},
		{"one node", func(a *args) { a.nodes = 1 }, "-nodes"},
		{"loss one", func(a *args) { a.loss = 1 }, "-loss"},
		{"negative loss", func(a *args) { a.loss = -0.1 }, "-loss"},
		{"zero timeout", func(a *args) { a.timeoutMS = 0 }, "-timeout-ms"},
		{"zero retries", func(a *args) { a.retries = 0 }, "-retries"},
		{"bad chaos", func(a *args) { a.chaos = "gremlins" }, "-chaos"},
		{"negative chaos ops", func(a *args) { a.chaosOps = -1 }, "-chaos-ops"},
		{"zero verify max", func(a *args) { a.verifyMax = 0 }, "-verify-max"},
		{"negative budget", func(a *args) { a.budgetP99 = -1 }, "-budget-p99-ms"},
	}
	for _, tc := range cases {
		a := ok()
		tc.mut(&a)
		err := call(a)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	if p := percentile(nil, 99); p != 0 {
		t.Fatalf("empty percentile = %v", p)
	}
	ms := []float64{5, 1, 3, 2, 4}
	if p := percentile(ms, 50); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
	if p := percentile(ms, 99); p != 5 {
		t.Fatalf("p99 = %v", p)
	}
	// The input must not be reordered in place.
	if ms[0] != 5 {
		t.Fatalf("percentile mutated its input: %v", ms)
	}
}
