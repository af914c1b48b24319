package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"tcor/internal/experiments"
)

func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"Figure 14: PB accesses to L2, normalized to baseline (64 KiB Tile Cache)": "figure-14-pb-accesses-to-l2-normalized-to-baselin",
		"Table I: GPU simulation parameters":                                       "table-i-gpu-simulation-parameters",
		"":                                                                         "",
	}
	for in, want := range cases {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseBenchmarks(t *testing.T) {
	if got, err := parseBenchmarks(""); err != nil || got != nil {
		t.Errorf("empty list: %v, %v", got, err)
	}
	got, err := parseBenchmarks("CCS, SoD,GTr")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "CCS" || got[1] != "SoD" || got[2] != "GTr" {
		t.Errorf("aliases = %v", got)
	}
	// A typo must fail loudly, not silently run an empty sweep.
	if _, err := parseBenchmarks("CCS,nope"); err == nil {
		t.Fatal("unknown alias must fail")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Errorf("error %q does not name the bad alias", err)
	}
}

func TestParsePolicies(t *testing.T) {
	if got, err := parsePolicies(""); err != nil || got != nil {
		t.Errorf("empty list: %v, %v", got, err)
	}
	got, err := parsePolicies("LRU, OPT,s3fifo")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "LRU" || got[1] != "OPT" || got[2] != "s3fifo" {
		t.Errorf("roster = %v", got)
	}
	if _, err := parsePolicies("LRU,bogus"); err == nil {
		t.Fatal("unknown policy must fail")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error %q does not name the bad policy", err)
	}
}

func TestValidateNumbers(t *testing.T) {
	if err := validateNumbers(0, 0, 0); err != nil {
		t.Errorf("defaults: %v", err)
	}
	if err := validateNumbers(2, 4, time.Minute); err != nil {
		t.Errorf("valid values: %v", err)
	}
	cases := []struct {
		frames, parallel int
		timeout          time.Duration
		wantIn           string
	}{
		{-1, 0, 0, "-frames"},
		{0, -1, 0, "-parallel"},
		{0, 0, -time.Second, "-timeout"},
	}
	for _, tc := range cases {
		err := validateNumbers(tc.frames, tc.parallel, tc.timeout)
		if err == nil {
			t.Errorf("%+v must fail", tc)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantIn) {
			t.Errorf("error %q does not mention %s", err, tc.wantIn)
		}
	}
}

func TestModeConflict(t *testing.T) {
	var m modes
	m.add("fig", true)
	m.add("table", false)
	if err := m.conflict(); err != nil {
		t.Errorf("single mode: %v", err)
	}
	m.add("all", true)
	err := m.conflict()
	if err == nil {
		t.Fatal("two modes must conflict")
	}
	if !strings.Contains(err.Error(), "-fig") || !strings.Contains(err.Error(), "-all") {
		t.Errorf("error %q does not name both modes", err)
	}
	if err := (modes{}).conflict(); err != nil {
		t.Errorf("no modes: %v", err)
	}
}

func TestExecuteAndWriteStats(t *testing.T) {
	// One small figure end to end, then the metrics dump.
	old := printTableOut
	printTableOut = func(*experiments.Table) {}
	defer func() { printTableOut = old }()

	r := experiments.NewRunner()
	r.Frames = 1
	r.Benchmarks = []string{"GTr"}
	if err := execute(r, execOpts{fig: 14}); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/metrics.json"
	if err := writeStats(r, path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]int64
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("metrics dump is not JSON: %v", err)
	}
	if snap["memo.runs.misses"] == 0 {
		t.Errorf("no simulations metered: %v", snap)
	}
	if snap["memo.scenes.misses"] != 1 {
		t.Errorf("scene misses = %d, want 1 (one benchmark)", snap["memo.scenes.misses"])
	}
}

func TestExecuteArena(t *testing.T) {
	var titles []string
	old := printTableOut
	printTableOut = func(t *experiments.Table) { titles = append(titles, t.Title) }
	defer func() { printTableOut = old }()

	r := experiments.NewRunner()
	r.Frames = 1
	r.Benchmarks = []string{"GTr"}
	o := execOpts{arena: true, policies: []string{"LRU", "OPT", "ARC"}, size: 16}
	if err := execute(r, o); err != nil {
		t.Fatal(err)
	}
	if len(titles) != 2 || !strings.Contains(titles[0], "Policy arena") {
		t.Errorf("arena without curves printed tables %v, want ranking + per-benchmark", titles)
	}
	titles = nil
	o.curves = true
	if err := execute(r, o); err != nil {
		t.Fatal(err)
	}
	if len(titles) != 3 {
		t.Errorf("arena with curves printed tables %v, want three", titles)
	}
	o.policies = []string{"PLRU"} // needs power-of-two ways; must surface
	if err := execute(r, o); err == nil {
		t.Error("PLRU without ways must fail the race")
	}
}

func TestExecuteUnknownFigure(t *testing.T) {
	r := experiments.NewRunner()
	if err := execute(r, execOpts{fig: 99}); err == nil {
		t.Error("unknown figure must fail")
	}
	if err := execute(r, execOpts{table: 7}); err == nil {
		t.Error("unknown table must fail")
	}
}
