// Command tracesim reads a Parameter Buffer access trace in the text format
// emitted by cmd/tracegen (prim kind: "W <prim>" / "R <prim> <optnum>") and
// simulates replacement policies over it. Together with tracegen this
// closes the loop for external users: export a trace from any source,
// replay it against the policy library, compare to the OPT yardstick and
// the analytic lower bound.
//
// Usage:
//
//	tracegen -benchmark CCS -kind prim | tracesim -policies LRU,DRRIP,OPT -size 48
//	tracesim -trace ccs.trace -size 64 -ways 4
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tcor/internal/buildinfo"
	"tcor/internal/cache"
	"tcor/internal/trace"
)

func main() {
	tracePath := flag.String("trace", "-", "trace file (- = stdin)")
	sizeKB := flag.Int("size", 48, "cache size in KiB (192 B per primitive)")
	ways := flag.Int("ways", 0, "associativity (0 = fully associative)")
	policies := flag.String("policies", "LRU,MRU,FIFO,SRRIP,DRRIP,Shepherd,Hawkeye,OPT",
		"comma-separated policies to simulate")
	version := flag.Bool("version", false, "print the build identity and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get())
		return
	}
	if err := run(os.Stdout, *tracePath, *sizeKB, *ways, strings.Split(*policies, ",")); err != nil {
		fmt.Fprintln(os.Stderr, "tracesim:", err)
		os.Exit(1)
	}
}

// parse reads the prim-kind trace format.
func parse(r io.Reader) (trace.Trace, error) {
	var tr trace.Trace
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var key uint64
		switch fields[0] {
		case "W":
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: want 'W <prim>'", lineNo)
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &key); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			tr = append(tr, trace.Access{Key: trace.Key(key), Write: true})
		case "R":
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: want 'R <prim> [optnum]'", lineNo)
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &key); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			tr = append(tr, trace.Access{Key: trace.Key(key)})
		default:
			return nil, fmt.Errorf("line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// run simulates each named policy (any cache registry spelling) over the
// trace and writes the comparison table to w. Every name is resolved
// before the trace is read, so a bad one prints nothing.
func run(w io.Writer, tracePath string, sizeKB, ways int, policyNames []string) error {
	names := make([]string, len(policyNames))
	for i, name := range policyNames {
		canon, err := cache.CanonicalPolicyName(name)
		if err != nil {
			return err
		}
		names[i] = canon
	}
	var in io.Reader = os.Stdin
	if tracePath != "-" {
		f, err := os.Open(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	tr, err := parse(in)
	if err != nil {
		return err
	}
	if len(tr) == 0 {
		return fmt.Errorf("empty trace")
	}
	trace.AnnotateNextUse(tr)

	cp := sizeKB * 1024 / 192
	lines := cp
	if ways > 0 {
		lines = cp / ways * ways
		if lines < ways {
			lines = ways
		}
	}
	fmt.Fprintf(w, "trace: %d accesses (%d writes), %d primitives; cache %d KiB = %d primitives, %s\n\n",
		len(tr), trace.Writes(tr), trace.UniqueKeys(tr), sizeKB, cp, assocName(ways))
	fmt.Fprintf(w, "%-10s %10s %10s %10s %12s\n", "policy", "hits", "misses", "missratio", "writebacks")
	for _, name := range names {
		pol, err := cache.NewPolicy(name)
		if err != nil {
			return err
		}
		st, err := cache.Simulate(cache.Config{Lines: lines, Ways: ways, WriteAllocate: true}, pol, tr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %10d %10d %10.3f %12d\n",
			name, st.Hits, st.Misses, st.MissRatio(), st.Writebacks)
	}
	fmt.Fprintf(w, "%-10s %10s %10s %10.3f\n", "LowerBound", "", "",
		cache.TraceLowerBoundMissRatio(tr, cp))
	return nil
}

func assocName(ways int) string {
	if ways <= 0 {
		return "fully associative"
	}
	return fmt.Sprintf("%d-way", ways)
}

// writeFile is a small indirection for tests.
func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
