// Package energy provides the analytic energy model that stands in for
// McPAT in the paper's toolchain. Energy is accounted the way the paper
// reports it: every access to every SRAM structure costs a per-access energy
// that grows with the structure's size and associativity (a CACTI-style
// scaling law), DRAM accesses cost orders of magnitude more, and the
// "memory hierarchy energy" of Figs. 20/21 is the sum over all caches plus
// DRAM. Total GPU energy adds the datapath (shader ALUs, rasterizer,
// fixed-function) cost, which is identical between baseline and TCOR — the
// paper's total-GPU numbers (Fig. 22) are the hierarchy savings diluted by
// that constant.
package energy

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Model holds the energy constants, in picojoules. The defaults are
// representative of a 32 nm mobile SoC (Table I's technology node):
// a 64 KiB 4-way SRAM read lands near 12 pJ, the 1 MiB L2 near 55 pJ, and a
// 64-byte LPDDR access near 3 nJ.
type Model struct {
	// SRAMBase and SRAMScale parameterize the per-access energy of an SRAM
	// structure: E = SRAMBase + SRAMScale*sqrt(KiB)*(1 + AssocFactor*ways).
	SRAMBase    float64
	SRAMScale   float64
	AssocFactor float64
	// WriteFactor scales write energy relative to reads.
	WriteFactor float64
	// DRAMRead and DRAMWrite are per-64-byte-access energies.
	DRAMRead, DRAMWrite float64
	// OpEnergy is the per-executed-shader-instruction datapath energy used
	// for the total-GPU aggregation. It covers the whole execution pipe —
	// fetch, decode, operand delivery, register file, ALU and scheduling —
	// around 70 pJ per instruction at 32 nm; the datapaths put the memory
	// hierarchy at roughly 40% of total GPU energy, the share the paper's
	// McPAT model implies (a 13.8% hierarchy saving dilutes to 5.5% of the
	// whole GPU).
	OpEnergy float64
	// FixedFunction is the per-fragment fixed-function datapath energy
	// (rasterization, attribute interpolation, early-Z, blending).
	FixedFunction float64
	// LeakagePJPerKBCycle is the static (leakage) energy of SRAM per KB per
	// clock cycle. Zero disables leakage accounting (the default: the
	// figures are calibrated on dynamic energy; turn it on via
	// gpu.Config.IncludeLeakage for sensitivity studies). A 32 nm SRAM
	// leaks on the order of 20 mW/MiB, i.e. ~0.03 pJ/KB/cycle at 600 MHz.
	LeakagePJPerKBCycle float64
}

// DefaultModel returns the 32 nm constants described above.
func DefaultModel() Model {
	return Model{
		SRAMBase:            1.5,
		SRAMScale:           0.95,
		AssocFactor:         0.10,
		WriteFactor:         1.1,
		DRAMRead:            3000,
		DRAMWrite:           3300,
		OpEnergy:            70,
		FixedFunction:       140,
		LeakagePJPerKBCycle: 0.033,
	}
}

// SRAMRead returns the read energy (pJ) of a structure of sizeBytes
// organized with the given associativity (ways<=1 treated as direct
// mapped/SRAM array).
func (m Model) SRAMRead(sizeBytes, ways int) float64 {
	if sizeBytes <= 0 {
		return 0
	}
	if ways < 1 {
		ways = 1
	}
	kib := float64(sizeBytes) / 1024
	return m.SRAMBase + m.SRAMScale*math.Sqrt(kib)*(1+m.AssocFactor*float64(ways))
}

// SRAMWrite returns the write energy (pJ).
func (m Model) SRAMWrite(sizeBytes, ways int) float64 {
	return m.SRAMRead(sizeBytes, ways) * m.WriteFactor
}

// Leakage returns the static energy (pJ) a structure of sizeBytes leaks
// over the given number of cycles.
func (m Model) Leakage(sizeBytes int, cycles int64) float64 {
	return m.LeakagePJPerKBCycle * float64(sizeBytes) / 1024 * float64(cycles)
}

// Tally accumulates energy by named component.
type Tally struct {
	entries map[string]*Entry
}

// Entry is one component's accumulated accesses and energy.
type Entry struct {
	Accesses int64
	PJ       float64
}

// NewTally returns an empty tally.
func NewTally() *Tally {
	return &Tally{entries: make(map[string]*Entry)}
}

// Add charges n accesses of perAccess pJ to the named component.
func (t *Tally) Add(component string, n int64, perAccess float64) {
	e := t.entries[component]
	if e == nil {
		e = &Entry{}
		t.entries[component] = e
	}
	e.Accesses += n
	e.PJ += float64(n) * perAccess
}

// AddEnergy charges a raw energy amount (pJ) without access accounting.
func (t *Tally) AddEnergy(component string, pj float64) {
	e := t.entries[component]
	if e == nil {
		e = &Entry{}
		t.entries[component] = e
	}
	e.PJ += pj
}

// Get returns a component's entry (zero if absent).
func (t *Tally) Get(component string) Entry {
	if e := t.entries[component]; e != nil {
		return *e
	}
	return Entry{}
}

// Total returns the summed energy in pJ. Components are summed in sorted
// order so the result is bit-for-bit deterministic (float addition is not
// associative; map iteration order would leak into the last bits).
func (t *Tally) Total() float64 {
	var s float64
	for _, k := range t.Components() {
		s += t.entries[k].PJ
	}
	return s
}

// Components returns the component names in sorted order.
func (t *Tally) Components() []string {
	out := make([]string, 0, len(t.entries))
	for k := range t.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MarshalJSON encodes the tally as a plain component→entry object.
// encoding/json sorts object keys, so the encoding is deterministic, as the
// gpu golden digests (hashes of encoded results) require. The encoding is
// one-way.
func (t *Tally) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.entries)
}

// Merge adds the other tally into t.
func (t *Tally) Merge(other *Tally) {
	for k, e := range other.entries {
		t.Add(k, e.Accesses, 0)
		t.AddEnergy(k, e.PJ)
	}
}

// String formats the tally for reports.
func (t *Tally) String() string {
	s := ""
	for _, k := range t.Components() {
		e := t.entries[k]
		s += fmt.Sprintf("%-22s %12d accesses %14.1f pJ\n", k, e.Accesses, e.PJ)
	}
	s += fmt.Sprintf("%-22s %27.1f pJ (%.3f mJ)\n", "TOTAL", t.Total(), t.Total()/1e9)
	return s
}
