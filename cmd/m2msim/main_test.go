package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"m2m"
)

// writeTrace writes a station trace covering the 68-node GDI layout.
func writeTrace(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("# synthetic station trace\n")
	for r := 0; r < 6; r++ {
		for n := 0; n < 68; n++ {
			if n > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.2f", 20+float64((n*7+r*3)%11)*0.3)
		}
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "stations.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestRun runs every example of the README and the command's doc comment
// and checks each one's key event, then checks that bad flags are
// rejected, exit 2, before any output.
func TestRun(t *testing.T) {
	trace := writeTrace(t)
	cases := []struct {
		args string
		code int
		want []string // in stdout on exit 0, in stderr otherwise
	}{
		{"", 0, []string{"optimal plan:", "flood"}},
		{"-nodes 150 -dests 0.25 -sources 20 -dispersion 0.5", 0, []string{"network: 150 nodes"}},
		{"-router shared -values", 0, []string{"destination values:"}},
		{"-loss 0.1", 0, []string{"fault injection (seed 1, loss 0.100, 3 retries)"}},
		{"-loss 0.1 -fail-node 12 -fail-round 2", 0, []string{"fault injection", "\n3 "}},
		{"-loss 0.05 -fail-node 12 -fail-round 2", 0, []string{"fault injection", "\n3 "}},
		{"-loss 0.1 -jitter 20", 0, []string{"async fault injection", "\n2 "}},
		{"-loss 0.1 -jitter 20 -dup 0.2 -deadline 500", 0, []string{"async fault injection", "dup 0.20, deadline 500ms"}},
		{"-dup 0.2 -jitter 15 -deadline 500", 0, []string{"async fault injection"}},
		{"-partition 20 -partition-round 2 -partition-len 4", 0, []string{"partition: severing 20 nodes", "9 rounds"}},
		{"-nodes 50 -sources 6 -partition 17 -partition-round 2 -partition-len 4", 0, []string{"partition: severing 17 nodes"}},
		{"-loss 0.05 -fail-node 12 -fail-round 2 -revive 8", 0, []string{"condemned 12", "rejoined 12"}},
		{"-nodes 50 -sources 6 -fail-node 12 -fail-round 2 -revive 9", 0, []string{"condemned 12", "rejoined 12"}},
		{"-jitter 10 -fail-node 12 -fail-round 1 -revive 4", 0, []string{"condemned 12", "rejoined 12"}},
		{"-nodes 50 -sources 6 -battery 2", 0, []string{"no battery death within 500 rounds"}},
		{"-nodes 50 -sources 6 -battery 2 -evac-horizon 12", 0, []string{"no battery death within 500 rounds"}},
		{"-nodes 50 -sources 6 -battery 0.2 -evac-horizon 12", 0, []string{"first battery death: round"}},
		{"-byzantine 7 -byz-mode amplify -byz-param 50", 0, []string{"excised 7", "excision: node 7 at round 2, still quarantined"}},
		{"-byzantine 7 -byz-round 2 -byz-len 6", 0, []string{"excised 7", "readmitted 7", "excision: node 7 at round 4, re-admitted at round 15"}},
		{"-byzantine 7 -byz-round 2 -byz-len 6 -trace " + trace, 0, []string{"readings: replaying", "excised 7"}},
		{"-collide -capture 0.1", 0, []string{"tdma frame installed"}},
		// Round 0 already runs scheduled, at a smoothed collision rate of 0.92.
		{"-collide -tdma -router mindeg", 0, []string{"0.92 tdma       0     0           -  tdma frame installed (epoch 1)"}},
		{"-collide -loss 0.05 -fail-node 12 -fail-round 4", 0, []string{"tdma frame installed", "condemned 12"}},
		// The scenario rules allow a ledger under a partition.
		{"-nodes 50 -sources 6 -battery 2 -partition 10", 0, []string{"partition: severing 10 nodes", "battery: 2 J/node", "no battery death"}},
		{"-scenario 8449", 0, []string{"scenario seed=8449", "seed 8449: ok"}},
		{"-scenario 8449 -tdma", 0, []string{"seed 8449: ok"}}, // -scenario ignores the other flags
		{"-loss 1", 2, []string{"loss 1 outside [0,1)"}},
		{"-dup 1", 2, []string{"duplication probability 1 outside [0,1)"}},
		{"-capture 1", 2, []string{"-capture without -collide"}},
		{"-collide -capture 1", 2, []string{"capture probability 1 outside [0,1)"}},
		{"-fail-round 2", 2, []string{"-fail-round without -fail-node"}},
		{"-fail-node 12 -fail-round 4 -revive 4", 2, []string{"malformed crash"}},
		{"-evac-horizon 4", 2, []string{"-evac-horizon without -battery"}},
		{"-battery 2 -evac-horizon 4 -router shared", 2, []string{"evacuation requires RouterReversePath"}},
		{"-fail-node 99", 2, []string{"malformed crash"}},
		{"-router mindegree", 2, []string{"unknown router"}},
		{"-min-degree", 2, []string{"flag provided but not defined"}},
		{"-collide -battery 2", 2, []string{"collision scenarios compose only"}},
		{"-nodes 30 -sources 4 -battery NaN", 2, []string{"non-finite battery"}},
		{"-nodes 30 -sources 4 -battery Inf", 2, []string{"non-finite battery"}},
		{"-jitter NaN", 2, []string{"non-finite async timing"}},
		{"-dup NaN", 2, []string{"non-finite async timing"}},
	}
	for _, tc := range cases {
		code, out, errOut := runArgs(strings.Fields(tc.args)...)
		if code != tc.code {
			t.Errorf("m2msim %s: exit %d, want %d: %s", tc.args, code, tc.code, errOut)
			continue
		}
		got := out
		if code != 0 {
			got = errOut
			if out != "" {
				t.Errorf("m2msim %s: printed before rejecting:\n%s", tc.args, out)
			}
		}
		for _, w := range tc.want {
			if !strings.Contains(got, w) {
				t.Errorf("m2msim %s: output lacks %q:\n%s", tc.args, w, got)
			}
		}
	}
}

// TestScenarioFile checks that a scenario repro file replays exactly as
// its seed does.
func TestScenarioFile(t *testing.T) {
	sc, err := m2m.GenerateScenario(8449)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sc.EncodeJSON() // what m2mfuzz -seed 8449 -scenario prints
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	codeSeed, fromSeed, _ := runArgs("-scenario", "8449")
	codeFile, fromFile, errOut := runArgs("-scenario", path)
	if codeSeed != 0 || codeFile != 0 {
		t.Fatalf("exit %d from seed, %d from file: %s", codeSeed, codeFile, errOut)
	}
	if fromSeed != fromFile {
		t.Fatalf("repro file replays differently:\n%s\n---\n%s", fromSeed, fromFile)
	}
}
