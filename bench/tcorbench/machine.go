package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tcor/internal/buildinfo"
)

// Machine identifies the host a result was measured on. compare refuses
// to set results from two different machines side by side.
type Machine struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentMachine() Machine {
	return Machine{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Build identifies the code a result was measured on: the VCS commit when
// the binary was built inside a git checkout, and always a digest of the
// Go sources, which also identifies builds from a plain source tree.
type Build struct {
	Commit       string `json:"commit"`
	Modified     bool   `json:"modified,omitempty"`
	SourceSHA256 string `json:"source_sha256"`
}

func currentBuild(root string) Build {
	bi := buildinfo.Get()
	b := Build{Commit: bi.Revision, Modified: bi.Modified, SourceSHA256: sourceDigest(root)}
	if b.Commit == "" {
		b.Commit = "unknown"
	}
	return b
}

// sourceDigest hashes the path and content of every .go and go.mod file
// under root, in path order, skipping hidden directories such as the build
// output. It returns "unknown" if the tree cannot be read.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p) // p is under root by construction
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS sets the process's peak resident set back to its current
// resident set (Linux 4.0 and later), so that peakRSSMiB reads the peak
// reached since.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssSegments measures the peak resident set of successive segments of a
// workload, each a fixed amount of work. A single high-water mark over a
// run depends on when the garbage collector happened to run; the median
// over segments does not.
type rssSegments struct {
	open  bool
	peaks []float64 // MiB
	err   error
}

// next ends the open segment, if any, and starts another.
func (r *rssSegments) next() {
	r.end()
	r.open = true
	if err := resetPeakRSS(); err != nil && r.err == nil {
		r.err = err
	}
}

// end ends the open segment, if any.
func (r *rssSegments) end() {
	if r.open {
		r.peaks = append(r.peaks, peakRSSMiB())
		r.open = false
	}
}

// median returns the median segment peak in MiB, or the peak so far when
// the window ended before a segment did.
func (r *rssSegments) median() (float64, error) {
	if r.err != nil {
		return 0, fmt.Errorf("resetting the peak resident set: %w", r.err)
	}
	if len(r.peaks) == 0 {
		return peakRSSMiB(), nil
	}
	return median(r.peaks), nil
}

// cpuTime returns the CPU time (user + system) the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
