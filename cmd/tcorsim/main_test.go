package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"tcor/internal/arena"
	"tcor/internal/gpu"
	"tcor/internal/serve"
	"tcor/internal/workload"
)

// TestConfigFor maps every -config name through the flags' request and
// the daemon's resolver, and an unknown name fails there.
func TestConfigFor(t *testing.T) {
	cases := map[string]gpu.TileCacheKind{
		"baseline":  gpu.KindBaseline,
		"tcor":      gpu.KindTCOR,
		"tcor-nol2": gpu.KindTCOR,
	}
	for name, kind := range cases {
		reqs, err := requests(options{benchmark: "GTr", config: name, sizeKB: 64})
		if err != nil {
			t.Fatal(err)
		}
		_, got, cfg, err := serve.Resolve(reqs[0])
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got != name || cfg.Kind != kind {
			t.Errorf("%s: resolved %s, kind %v", name, got, cfg.Kind)
		}
		if cfg.TileCacheBytes != 64*1024 {
			t.Errorf("%s: size = %d", name, cfg.TileCacheBytes)
		}
		if cfg.L2Enhanced != (name == "tcor") {
			t.Errorf("%s: L2Enhanced = %v", name, cfg.L2Enhanced)
		}
	}
	reqs, err := requests(options{benchmark: "GTr", config: "bogus", sizeKB: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := serve.Resolve(reqs[0]); err == nil {
		t.Error("unknown config must fail")
	}
}

func TestParseOptionsValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; empty = must succeed
	}{
		{"defaults", nil, ""},
		{"explicit run", []string{"-benchmark", "SoD", "-config", "baseline", "-size", "128"}, ""},
		{"compare alone", []string{"-compare"}, ""},
		{"stats and check", []string{"-stats", "out.json", "-check"}, ""},
		{"evtrace with stats", []string{"-evtrace", "8", "-stats", "out.json"}, ""},
		{"negative timeout", []string{"-timeout", "-1s"}, "-timeout"},
		{"negative frames", []string{"-frames", "-1"}, "-frames"},
		{"zero size", []string{"-size", "0"}, "-size"},
		{"negative size", []string{"-size", "-64"}, "-size"},
		// -parallel and -chaos are gone: -compare is one SimulateGroup, so
		// there is no pool to size or to inject faults into.
		{"negative parallel", []string{"-parallel", "-2"}, "not defined: -parallel"},
		{"negative evtrace", []string{"-evtrace", "-1"}, "-evtrace"},
		{"evtrace without stats", []string{"-evtrace", "8"}, "-stats"},
		{"chaos with compare", []string{"-compare", "-chaos", "rate=0.5,lat=10ms"}, "not defined: -chaos"},
		{"chaos without compare", []string{"-chaos", "rate=0.5"}, "not defined: -chaos"},
		{"chaos bad plan", []string{"-compare", "-chaos", "rate=nope"}, "not defined: -chaos"},
		{"timeout without policy", []string{"-timeout", "1m"}, "-policy"},
		{"timeout with policy", []string{"-policy", "ARC", "-timeout", "1m"}, ""},
		{"compare with config", []string{"-compare", "-config", "tcor"}, "conflicts"},
		{"spec with benchmark", []string{"-spec", "x.json", "-benchmark", "CCS"}, "conflicts"},
		{"policy alone", []string{"-policy", "ARC"}, ""},
		{"policy unknown", []string{"-policy", "bogus"}, "unknown policy"},
		{"policy with compare", []string{"-policy", "ARC", "-compare"}, "conflicts"},
		{"policy with stats", []string{"-policy", "ARC", "-stats", "out.json"}, "conflicts"},
		{"stray positional args", []string{"CCS"}, "unexpected arguments"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseOptions(tc.args, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("args %v must fail", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestRunTextAndJSON(t *testing.T) {
	// Exercise both output paths end to end on the smallest benchmark.
	ctx := context.Background()
	base := options{benchmark: "GTr", config: "tcor", sizeKB: 64, frames: 1}
	for _, js := range []bool{false, true} {
		o := base
		o.jsonOut = js
		if err := run(ctx, io.Discard, o); err != nil {
			t.Fatalf("json=%v: %v", js, err)
		}
	}
	o := base
	o.config = "bogus"
	if err := run(ctx, io.Discard, o); err == nil {
		t.Error("bogus config must fail")
	}
	o = base
	o.benchmark = "nope"
	if err := run(ctx, io.Discard, o); err == nil {
		t.Error("unknown benchmark must fail")
	}
}

func TestParseOptionsCanonicalizesPolicy(t *testing.T) {
	o, err := parseOptions([]string{"-policy", "s3fifo"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.policy != "S3-FIFO" {
		t.Errorf("policy alias resolved to %q, want S3-FIFO", o.policy)
	}
}

func TestRunPolicyRace(t *testing.T) {
	// The -policy race anchors on LRU and OPT; text and json outputs share
	// one report.
	ctx := context.Background()
	o := options{benchmark: "GTr", policy: "ARC", sizeKB: 16, frames: 1}
	var text strings.Builder
	if err := run(ctx, &text, o); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Policy arena", "ARC", "LRU", "OPT"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}
	o.jsonOut = true
	var js strings.Builder
	if err := run(ctx, &js, o); err != nil {
		t.Fatal(err)
	}
	var rep arena.Report
	if err := json.Unmarshal([]byte(js.String()), &rep); err != nil {
		t.Fatalf("-policy -json is not a canonical report: %v", err)
	}
	if rep.Ranking[0].Policy != "OPT" {
		t.Errorf("OPT not ranked first: %+v", rep.Ranking)
	}
	o.benchmark = "nope"
	if err := run(ctx, io.Discard, o); err == nil {
		t.Error("unknown benchmark must fail the race")
	}
}

func TestRunWithSpecFile(t *testing.T) {
	path := t.TempDir() + "/s.json"
	data, err := workload.MarshalSpec(workload.Suite()[9]) // GTr, smallest
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	o := options{specPath: path, config: "tcor", sizeKB: 64, frames: 1}
	if err := run(context.Background(), io.Discard, o); err != nil {
		t.Fatal(err)
	}
	o.specPath = path + ".missing"
	if err := run(context.Background(), io.Discard, o); err == nil {
		t.Error("missing spec must fail")
	}
}

func TestRunStatsCheckAndTrace(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/stats.json"
	o := options{
		benchmark: "GTr", config: "tcor", sizeKB: 64, frames: 1,
		statsPath: path, check: true, evtrace: 8,
	}
	if err := run(context.Background(), io.Discard, o); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc statsDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("stats file is not JSON: %v", err)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("stats runs = %d, want 1", len(doc.Runs))
	}
	r := doc.Runs[0]
	if r.Benchmark != "GTr" || r.Config != "tcor" || r.TileCacheKB != 64 {
		t.Errorf("run metadata wrong: %+v", r)
	}
	// Every hierarchy level must be covered by the schema.
	for _, want := range []string{
		"l1.list.hits", "l1.attr.reads", "l1.tile.accesses", "l1.vertex.accesses",
		"l2.reads", "l2.in.region.PB-Lists.reads", "dram.reads", "raster.fragments",
	} {
		if _, ok := r.Counters[want]; !ok {
			t.Errorf("counter %q missing from -stats output", want)
		}
	}
	if len(r.L2Trace) == 0 || len(r.L2Trace) > 8 {
		t.Errorf("L2 trace has %d events, want 1..8", len(r.L2Trace))
	}
}

func TestRunCompareStatsDeterministic(t *testing.T) {
	// -compare runs both configurations as one group; its -stats runs must
	// equal the two solo runs'.
	dir := t.TempDir()
	statsOf := func(name string, o options) statsDoc {
		t.Helper()
		o.benchmark, o.sizeKB, o.frames = "GTr", 64, 1
		o.statsPath, o.check = dir+"/"+name+".json", true
		if err := run(context.Background(), io.Discard, o); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(o.statsPath)
		if err != nil {
			t.Fatal(err)
		}
		var doc statsDoc
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	doc := statsOf("compare", options{compare: true})
	if len(doc.Runs) != 2 || doc.Runs[0].Config != "baseline" || doc.Runs[1].Config != "tcor" {
		t.Fatalf("compare runs wrong: %+v", doc.Runs)
	}
	for i, config := range []string{"baseline", "tcor"} {
		solo := statsOf(config, options{config: config})
		if !reflect.DeepEqual(solo.Runs[0], doc.Runs[i]) {
			t.Errorf("-compare %s stats differ from the solo run", config)
		}
	}
	// Schema stability: both configurations publish the same counter names.
	if len(doc.Runs[0].Counters) != len(doc.Runs[1].Counters) {
		t.Errorf("schema differs: %d vs %d counters",
			len(doc.Runs[0].Counters), len(doc.Runs[1].Counters))
	}
}

// TestJSONMatchesDaemon is the CLI's row of the determinism matrix
// (internal/cluster TestDeterminismMatrix): -json prints exactly the body a
// daemon serves for the same request, and -compare -json exactly the
// /v1/sweep body for the baseline and TCOR items.
func TestJSONMatchesDaemon(t *testing.T) {
	srv := httptest.NewServer(serve.NewServer(serve.Options{}).Handler())
	defer srv.Close()
	post := func(path string, v any) []byte {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s %v", path, resp.StatusCode, data, err)
		}
		return data
	}
	cli := func(o options) []byte {
		t.Helper()
		o.benchmark, o.sizeKB, o.frames, o.jsonOut = "GTr", 64, 1, true
		var out bytes.Buffer
		if err := run(context.Background(), &out, o); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}

	tcor := serve.SimulateRequest{Benchmark: "GTr", Config: "tcor", TileCacheKB: 64, Frames: 1}
	base := tcor
	base.Config = "baseline"
	if got, want := cli(options{config: "tcor"}), post("/v1/simulate", tcor); !bytes.Equal(got, want) {
		t.Errorf("tcorsim -json differs from /v1/simulate:\ncli:    %s\nserved: %s", got, want)
	}
	sweep := serve.SweepRequest{Items: []serve.SimulateRequest{base, tcor}}
	if got, want := cli(options{compare: true}), post("/v1/sweep", sweep); !bytes.Equal(got, want) {
		t.Errorf("tcorsim -compare -json differs from /v1/sweep:\ncli:    %s\nserved: %s", got, want)
	}
}

// TestReadmeExamplesParse keeps the README's `go run ./cmd/tcorsim` lines
// runnable: each one's flags must parse and its -benchmark must resolve.
func TestReadmeExamplesParse(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(string(data), "\n") {
		_, rest, ok := strings.Cut(line, "go run ./cmd/tcorsim ")
		if !ok {
			continue
		}
		rest, _, _ = strings.Cut(rest, "#")
		lines = append(lines, strings.TrimSuffix(strings.TrimSpace(rest), "&"))
	}
	if len(lines) == 0 {
		t.Fatal("README has no `go run ./cmd/tcorsim` lines")
	}
	for _, line := range lines {
		args := strings.Fields(line)
		for i, a := range args {
			args[i] = strings.Trim(a, `"'`)
		}
		o, err := parseOptions(args, io.Discard)
		if err == nil {
			_, err = workload.ByAlias(o.benchmark)
		}
		if err != nil {
			t.Errorf("README: tcorsim %s: %v", line, err)
		}
	}
}
