package cache

import (
	"fmt"
	"sort"
	"strings"
)

// The policy registry maps stable string names to fresh policy instances so
// every binary — tcorsim -policy, paperfig -arena, the /v1/arena endpoint —
// and the paper's policy figures select policies the same way. Seeded policies use a fixed seed (1):
// reproducibility across runs and processes outranks seed variety here, and
// the determinism test in registry_test.go depends on it.

// registrySeed is the fixed seed given to stochastic policies.
const registrySeed = 1

// PolicyInfo describes one registered policy.
type PolicyInfo struct {
	// Name is the canonical registry name (matches Policy.Name()).
	Name string
	// Summary is a one-line description for help text and docs.
	Summary string
	// Make builds a fresh, unshared instance.
	Make func() Policy
}

var policyRegistry = []PolicyInfo{
	{"LRU", "least recently used (the paper's baseline)", NewLRU},
	{"MRU", "most recently used (cyclic-pattern specialist)", NewMRU},
	{"FIFO", "first in, first out", NewFIFO},
	{"Random", "uniform random victim (seeded)", func() Policy { return NewRandom(registrySeed) }},
	{"PLRU", "binary-tree pseudo-LRU (power-of-two ways)", NewPLRU},
	{"NRU", "not recently used (single reference bit)", NewNRU},
	{"LIP", "LRU-insertion policy (thrash-resistant)", NewLIP},
	{"BIP", "bimodal insertion (seeded)", func() Policy { return NewBIP(registrySeed) }},
	{"DIP", "dynamic insertion via set dueling (seeded)", func() Policy { return NewDIP(registrySeed) }},
	{"SRRIP", "static re-reference interval prediction", NewSRRIP},
	{"BRRIP", "bimodal RRIP (seeded)", func() Policy { return NewBRRIP(registrySeed) }},
	{"DRRIP", "dynamic RRIP via set dueling (seeded, M=2)", func() Policy { return NewDRRIP(registrySeed) }},
	{"Shepherd", "Shepherd Cache: bounded-lookahead OPT emulation", func() Policy { return NewShepherd(1) }},
	{"Hawkeye", "learns Belady's decisions from past windows", func() Policy { return NewHawkeye(nil) }},
	{"SHiP", "signature-based hit prediction over RRIP", func() Policy { return NewSHiP(nil) }},
	{"ARC", "adaptive replacement cache (recency/frequency balance)", NewARC},
	{"S3-FIFO", "three static FIFO queues with ghost readmission", NewS3FIFO},
	{"Learned", "online reuse-distance predictor, SRRIP fallback", NewLearned},
	{"OPT", "Belady's offline optimal (needs next-use annotations)", NewOPT},
}

// PolicyNames returns the canonical names of every registered policy,
// sorted case-insensitively. The slice is fresh on every call.
func PolicyNames() []string {
	names := make([]string, len(policyRegistry))
	for i, e := range policyRegistry {
		names[i] = e.Name
	}
	sort.Slice(names, func(i, j int) bool {
		return strings.ToLower(names[i]) < strings.ToLower(names[j])
	})
	return names
}

// Policies returns the registry entries in sorted-name order.
func Policies() []PolicyInfo {
	out := make([]PolicyInfo, len(policyRegistry))
	copy(out, policyRegistry)
	sort.Slice(out, func(i, j int) bool {
		return strings.ToLower(out[i].Name) < strings.ToLower(out[j].Name)
	})
	return out
}

// LookupPolicy finds a registry entry by name, case-insensitively. "s3fifo"
// and "2q" are accepted as spellings of S3-FIFO for CLI convenience.
func LookupPolicy(name string) (PolicyInfo, bool) {
	n := strings.ToLower(strings.TrimSpace(name))
	if n == "s3fifo" || n == "2q" {
		n = "s3-fifo"
	}
	for _, e := range policyRegistry {
		if strings.ToLower(e.Name) == n {
			return e, true
		}
	}
	return PolicyInfo{}, false
}

// NewPolicy builds a fresh instance of the named policy, or an error naming
// the valid choices.
func NewPolicy(name string) (Policy, error) {
	if e, ok := LookupPolicy(name); ok {
		return e.Make(), nil
	}
	return nil, fmt.Errorf("cache: unknown policy %q (valid: %s)", name, strings.Join(PolicyNames(), ", "))
}

// CanonicalPolicyName resolves name to its registry spelling, or an error.
func CanonicalPolicyName(name string) (string, error) {
	if e, ok := LookupPolicy(name); ok {
		return e.Name, nil
	}
	return "", fmt.Errorf("cache: unknown policy %q (valid: %s)", name, strings.Join(PolicyNames(), ", "))
}
