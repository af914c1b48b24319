package main

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"tcor/internal/cache"
	"tcor/internal/trace"
)

func TestParseTrace(t *testing.T) {
	src := `
# comment
W 0
W 1
R 0 17
R 1 4095
`
	tr, err := parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 4 {
		t.Fatalf("records = %d", len(tr))
	}
	if !tr[0].Write || tr[2].Write {
		t.Error("record directions wrong")
	}
	if tr[2].Key != 0 || tr[3].Key != 1 {
		t.Error("keys wrong")
	}
}

func TestParseTraceErrors(t *testing.T) {
	for i, src := range []string{
		"W\n", "R\n", "X 1\n", "W abc\n", "R xyz 1\n",
	} {
		if _, err := parse(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestRunEveryRegistryPolicy runs every cache registry policy through
// tracesim, in the registry's spelling and in lower case: each prints one
// row under its canonical name, and an unknown name fails before any
// output.
func TestRunEveryRegistryPolicy(t *testing.T) {
	path := t.TempDir() + "/t.trace"
	if err := writeFile(path, strings.Repeat("W 0\nW 1\nW 2\nR 0\nR 1\nR 2\nR 0\n", 4)); err != nil {
		t.Fatal(err)
	}
	for _, ways := range []int{0, 4} {
		for _, names := range [][]string{cache.PolicyNames(), lower(cache.PolicyNames())} {
			var out strings.Builder
			if err := run(&out, path, 48, ways, names); err != nil {
				t.Fatalf("ways %d: %v", ways, err)
			}
			for _, name := range cache.PolicyNames() {
				if !strings.Contains(out.String(), "\n"+fmt.Sprintf("%-10s ", name)) {
					t.Errorf("ways %d: no row for %s in\n%s", ways, name, out.String())
				}
			}
		}
	}
	var out strings.Builder
	if err := run(&out, path, 48, 0, []string{"LRU", "nope"}); err == nil || out.Len() != 0 {
		t.Errorf("unknown policy: err %v, output %q", err, out.String())
	}
}

func lower(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = strings.ToLower(n)
	}
	return out
}

func TestRunEndToEnd(t *testing.T) {
	path := t.TempDir() + "/t.trace"
	trace := "W 0\nW 1\nW 2\nR 0 1\nR 1 2\nR 2 4095\nR 0 4095\n"
	if err := writeFile(path, trace); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, path, 48, 4, []string{"LRU", "OPT"}); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, path, 48, 0, []string{"bogus"}); err == nil {
		t.Error("bogus policy must fail")
	}
	if err := run(io.Discard, path+".missing", 48, 0, []string{"LRU"}); err == nil {
		t.Error("missing file must fail")
	}
}

func FuzzParseTrace(f *testing.F) {
	f.Add("W 0\nR 0 1\n")
	f.Add("# c\n\nW 12\nR 12 4095\nR 12 0\n")
	f.Add("W 18446744073709551615\nR 18446744073709551615\n")
	f.Add("  W   7  \n\t\nR 7 3\n# trailing comment")
	f.Add("W -1\n")
	f.Add("X 0\n")
	f.Add("W\n")
	f.Add("R 0xff\n")
	f.Add(strings.Repeat("W 1\nR 1\n", 64))
	f.Fuzz(func(t *testing.T, src string) {
		// Must never panic; on success the accepted records round-trip
		// through the text format and simulate cleanly under OPT and LRU.
		tr, err := parse(strings.NewReader(src))
		if err != nil {
			return
		}

		// Round trip: re-serialize the accepted trace and re-parse it.
		var b strings.Builder
		for _, a := range tr {
			if a.Write {
				fmt.Fprintf(&b, "W %d\n", uint64(a.Key))
			} else {
				fmt.Fprintf(&b, "R %d\n", uint64(a.Key))
			}
		}
		back, err := parse(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-parsing serialized trace failed: %v", err)
		}
		if len(back) != len(tr) {
			t.Fatalf("round trip changed length: %d -> %d", len(tr), len(back))
		}
		for i := range tr {
			if back[i].Key != tr[i].Key || back[i].Write != tr[i].Write {
				t.Fatalf("record %d changed: %+v -> %+v", i, tr[i], back[i])
			}
		}

		// Any accepted trace must simulate without error, and Belady must
		// not lose to LRU on it (bounded to keep the fuzz iteration cheap).
		if len(tr) == 0 || len(tr) > 4096 {
			return
		}
		trace.AnnotateNextUse(tr)
		cfg := cache.Config{Lines: 8, WriteAllocate: true}
		opt, err := cache.Simulate(cfg, cache.NewOPT(), tr)
		if err != nil {
			t.Fatalf("OPT simulation rejected a parsed trace: %v", err)
		}
		lru, err := cache.Simulate(cfg, cache.NewLRU(), tr)
		if err != nil {
			t.Fatalf("LRU simulation rejected a parsed trace: %v", err)
		}
		if opt.Misses > lru.Misses {
			t.Fatalf("OPT misses %d exceed LRU's %d on a parsed trace", opt.Misses, lru.Misses)
		}
		if opt.Accesses != int64(len(tr)) || lru.Accesses != int64(len(tr)) {
			t.Fatalf("access counts diverge from trace length %d: OPT %d, LRU %d",
				len(tr), opt.Accesses, lru.Accesses)
		}
	})
}
