// Package dram models main memory: a bank/row-buffer DRAM with an open-page
// policy. It stands in for DRAMSim2 in the paper's toolchain; only the
// properties that feed the results matter — access counts (energy), and
// row-hit vs row-miss latency (Table I: 50–100 cycles).
package dram

import (
	"fmt"
	"math/bits"

	"tcor/internal/geom"
	"tcor/internal/mem"
	"tcor/internal/memmap"
	"tcor/internal/stats"
)

// Config describes the DRAM geometry and timing.
type Config struct {
	// Banks and RowBytes must be powers of two: an address splits into
	// row, bank and column by shifts and masks.
	Banks         int
	RowBytes      int
	RowHitCycles  int // latency when the row buffer already holds the row
	RowMissCycles int // latency when a new row must be activated
	// BytesPerCycle is the sustained data-bus bandwidth in bytes per GPU
	// clock cycle; it bounds frame time from below when a frame is
	// memory-bandwidth-bound. 16 B/cycle at 600 MHz is ~9.6 GB/s, a
	// contemporary mobile LPDDR channel.
	BytesPerCycle float64
}

// DefaultConfig returns a contemporary mobile LPDDR-style configuration
// matching Table I's 50–100 cycle main-memory latency.
func DefaultConfig() Config {
	return Config{Banks: 8, RowBytes: 2048, RowHitCycles: 50, RowMissCycles: 100, BytesPerCycle: 16}
}

// Stats counts DRAM events.
type Stats struct {
	Reads, Writes      int64
	RowHits, RowMisses int64
	TotalCycles        int64 // sum of per-access latencies
	// ReadCycles sums the latencies of read accesses only; writes are
	// posted and do not stall the requester.
	ReadCycles int64
	// BusyCycles is the data-bus occupancy: accesses x (64 B / bandwidth).
	// A frame can never finish faster than the DRAM is busy.
	BusyCycles int64
}

// Publish stores the counters into a stats registry under prefix.
func (s Stats) Publish(r *stats.Registry, prefix string) {
	r.Counter(prefix + ".reads").Store(s.Reads)
	r.Counter(prefix + ".writes").Store(s.Writes)
	r.Counter(prefix + ".rowHits").Store(s.RowHits)
	r.Counter(prefix + ".rowMisses").Store(s.RowMisses)
	r.Counter(prefix + ".totalCycles").Store(s.TotalCycles)
	r.Counter(prefix + ".readCycles").Store(s.ReadCycles)
	r.Counter(prefix + ".busyCycles").Store(s.BusyCycles)
}

// RegisterStatsInvariants registers the DRAM consistency checks: every
// access resolves to a row hit or a row miss, and read latency is part of
// total latency.
func RegisterStatsInvariants(r *stats.Registry, prefix string) {
	r.RegisterInvariant(prefix+".rowHits+rowMisses==accesses", func(s stats.Snapshot) error {
		if h, m, a := s.Get(prefix+".rowHits"), s.Get(prefix+".rowMisses"), s.Get(prefix+".reads")+s.Get(prefix+".writes"); h+m != a {
			return fmt.Errorf("%d row hits + %d row misses != %d accesses", h, m, a)
		}
		return nil
	})
	r.RegisterInvariant(prefix+".readCycles<=totalCycles", func(s stats.Snapshot) error {
		if rc, tc := s.Get(prefix+".readCycles"), s.Get(prefix+".totalCycles"); rc > tc {
			return fmt.Errorf("%d read cycles exceed %d total cycles", rc, tc)
		}
		return nil
	})
}

// DRAM is the main-memory model. It is the terminal mem.Sink of the
// hierarchy and embeds a per-region access counter for the figures that
// report main-memory traffic by data type.
type DRAM struct {
	cfg  Config
	rows []int64 // open row per bank; -1 = closed
	// Address split and bus cost, fixed by cfg: a row index is
	// addr >> rowShift, its bank the low bits under bankMask, and each
	// access occupies the bus for busCycles.
	rowShift, bankShift uint
	bankMask            int64
	busCycles           int64
	stats               Stats
	Counter             *mem.Counter
}

// New builds the DRAM model.
func New(cfg Config) (*DRAM, error) {
	if cfg.Banks <= 0 || cfg.RowBytes <= 0 {
		return nil, fmt.Errorf("dram: bad geometry %+v", cfg)
	}
	if cfg.Banks&(cfg.Banks-1) != 0 || cfg.RowBytes&(cfg.RowBytes-1) != 0 {
		return nil, fmt.Errorf("dram: %d banks and %d-byte rows must both be powers of two", cfg.Banks, cfg.RowBytes)
	}
	if cfg.RowHitCycles <= 0 || cfg.RowMissCycles < cfg.RowHitCycles {
		return nil, fmt.Errorf("dram: bad timing %+v", cfg)
	}
	if cfg.BytesPerCycle <= 0 {
		cfg.BytesPerCycle = 16
	}
	d := &DRAM{
		cfg:       cfg,
		rows:      make([]int64, cfg.Banks),
		rowShift:  uint(bits.TrailingZeros(uint(cfg.RowBytes))),
		bankShift: uint(bits.TrailingZeros(uint(cfg.Banks))),
		bankMask:  int64(cfg.Banks - 1),
		busCycles: int64(float64(64)/cfg.BytesPerCycle + 0.5),
		Counter:   mem.NewCounter(),
	}
	for i := range d.rows {
		d.rows[i] = -1
	}
	return d, nil
}

// Stats returns a copy of the statistics.
func (d *DRAM) Stats() Stats { return d.stats }

// bankAndRow splits an address into its bank and row. Banks interleave at
// row granularity.
func (d *DRAM) bankAndRow(addr uint64) (int, int64) {
	row := int64(addr >> d.rowShift)
	return int(row & d.bankMask), row >> d.bankShift
}

// Latency returns the access latency for addr and updates the row-buffer
// state (open-page policy).
func (d *DRAM) Latency(addr uint64) int {
	bank, row := d.bankAndRow(addr)
	if d.rows[bank] == row {
		d.stats.RowHits++
		d.stats.TotalCycles += int64(d.cfg.RowHitCycles)
		return d.cfg.RowHitCycles
	}
	d.rows[bank] = row
	d.stats.RowMisses++
	d.stats.TotalCycles += int64(d.cfg.RowMissCycles)
	return d.cfg.RowMissCycles
}

// Access implements mem.Sink.
func (d *DRAM) Access(r mem.Request) {
	lat := d.Latency(r.Addr)
	if r.Write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
		d.stats.ReadCycles += int64(lat)
	}
	d.stats.BusyCycles += d.busCycles
	d.Counter.Access(r)
}

// WriteBlocks implements mem.BlockWriter: it services the n block writes
// at base, base+64, ... exactly as n Access calls would, one DRAM row at a
// time. A row's first block of the run hits or misses as Latency finds
// it, and the rest of the row's blocks are row hits, so the run is booked
// once per row it touches. A Color Buffer flush is one run per tile.
func (d *DRAM) WriteBlocks(base uint64, n int64) {
	for n > 0 {
		// The run's blocks up to the end of base's row, and of its region
		// (a row never spans two at the default geometry).
		end := (base>>d.rowShift + 1) << d.rowShift
		if re := base&^(memmap.RegionBytes-1) + memmap.RegionBytes; re < end {
			end = re
		}
		k := int64((end - base + memmap.BlockBytes - 1) / memmap.BlockBytes)
		if k > n {
			k = n
		}
		d.Latency(base)
		d.stats.RowHits += k - 1
		d.stats.TotalCycles += (k - 1) * int64(d.cfg.RowHitCycles)
		d.stats.Writes += k
		d.stats.BusyCycles += k * d.busCycles
		d.Counter.AccessN(mem.Request{Addr: base, Write: true}, k)
		base += uint64(k) * memmap.BlockBytes
		n -= k
	}
}

// TileRetired implements mem.Sink (no-op).
func (d *DRAM) TileRetired(pos uint16, tile geom.TileID) {}

// EndFrame implements mem.Sink (no-op: DRAM state carries across frames).
func (d *DRAM) EndFrame() {}

// Region returns the per-region access counts.
func (d *DRAM) Region(r memmap.Region) mem.RegionCounts { return d.Counter.Region(r) }

// PB returns the combined Parameter Buffer access counts.
func (d *DRAM) PB() mem.RegionCounts { return d.Counter.PB() }

// Total returns reads+writes.
func (d *DRAM) Total() int64 { return d.stats.Reads + d.stats.Writes }
