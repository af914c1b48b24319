package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"tcor/internal/experiments"
	"tcor/internal/serve"
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
	if err := execute(r, execOpts{mode: "fig", num: 14}); err != nil {
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
	o := execOpts{mode: "arena", policies: []string{"LRU", "OPT", "ARC"}, size: 16}
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

// TestArenaJSONMatchesDaemon is the CLI's row of the determinism matrix
// (internal/cluster TestDeterminismMatrix): paperfig -arena -frames 1
// -curves=false -format json prints exactly the body POST /v1/arena serves
// for the same race.
func TestArenaJSONMatchesDaemon(t *testing.T) {
	srv := httptest.NewServer(serve.NewServer(serve.Options{}).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/arena", "application/json",
		strings.NewReader(`{"policies":["LRU","OPT","ARC"],"benchmarks":["GTr"],"sizeKB":16}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	served, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/arena: %d %s %v", resp.StatusCode, served, err)
	}

	r := experiments.NewRunner()
	r.Frames = 1
	r.Benchmarks = []string{"GTr"}
	var cli bytes.Buffer
	o := execOpts{mode: "arena", policies: []string{"LRU", "OPT", "ARC"}, size: 16, jsonOut: true}
	if err := runArena(&cli, r, o); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cli.Bytes(), served) {
		t.Errorf("paperfig -arena -format json differs from /v1/arena:\ncli:    %s\nserved: %s", cli.Bytes(), served)
	}
}

func TestExecuteUnknownFigure(t *testing.T) {
	r := experiments.NewRunner()
	if err := execute(r, execOpts{mode: "fig", num: 99}); err == nil {
		t.Error("unknown figure must fail")
	}
	if err := execute(r, execOpts{mode: "table", num: 7}); err == nil {
		t.Error("unknown table must fail")
	}
}

// TestFormatUsageNamesEveryFormat reads main.go's syntax tree for the
// switch on *format and checks that formatUsage names every format one of
// its cases accepts, so the help cannot fall behind the switch.
func TestFormatUsageNamesEveryFormat(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var formats []string
	ast.Inspect(f, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		star, ok := sw.Tag.(*ast.StarExpr)
		if !ok {
			return true
		}
		if id, ok := star.X.(*ast.Ident); !ok || id.Name != "format" {
			return true
		}
		for _, stmt := range sw.Body.List {
			for _, e := range stmt.(*ast.CaseClause).List {
				lit, ok := e.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("case %T in the switch on *format is not a string literal", e)
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				formats = append(formats, v)
			}
		}
		return false
	})
	if len(formats) < 3 {
		t.Fatalf("found formats %q in the switch on *format, want at least text, csv and json", formats)
	}
	for _, name := range formats {
		if !strings.Contains(formatUsage, name) {
			t.Errorf("-format usage %q does not name %q", formatUsage, name)
		}
	}
	if !strings.Contains(formatUsage, "-arena") {
		t.Errorf("-format usage %q does not say json needs -arena", formatUsage)
	}
}
