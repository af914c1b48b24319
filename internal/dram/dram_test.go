package dram

import (
	"math/rand"
	"slices"
	"testing"

	"tcor/internal/mem"
	"tcor/internal/memmap"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config must fail")
	}
	if _, err := New(Config{Banks: 8, RowBytes: 2048, RowHitCycles: 100, RowMissCycles: 50}); err == nil {
		t.Error("miss faster than hit must fail")
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Error(err)
	}
	// The address split is by shifts and masks.
	for _, geo := range [][2]int{{6, 2048}, {8, 1536}, {3, 100}} {
		cfg := DefaultConfig()
		cfg.Banks, cfg.RowBytes = geo[0], geo[1]
		if _, err := New(cfg); err == nil {
			t.Errorf("%d banks, %d-byte rows: want a power-of-two error", geo[0], geo[1])
		}
	}
	cfg := DefaultConfig()
	cfg.Banks, cfg.RowBytes = 1, 64
	if _, err := New(cfg); err != nil {
		t.Errorf("1 bank, 64-byte rows: %v", err)
	}
}

// TestBankAndRowMatchesDivision checks the shift-and-mask address split
// against the division it replaces on power-of-two geometries.
func TestBankAndRowMatchesDivision(t *testing.T) {
	for _, geo := range [][2]int{{8, 2048}, {1, 64}, {16, 1024}, {4, 8192}} {
		cfg := DefaultConfig()
		cfg.Banks, cfg.RowBytes = geo[0], geo[1]
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, addr := range []uint64{0, 63, 2047, 2048, 12345, memmap.TexturesBase + 99999, 1<<63 + 7, 1<<64 - 1} {
			row := int64(addr / uint64(cfg.RowBytes))
			wantBank, wantRow := int(row%int64(cfg.Banks)), row/int64(cfg.Banks)
			if bank, r := d.bankAndRow(addr); bank != wantBank || r != wantRow {
				t.Errorf("%v addr %#x: bank %d row %d, want %d %d", geo, addr, bank, r, wantBank, wantRow)
			}
		}
	}
}

func TestRowBufferHitsAndMisses(t *testing.T) {
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// First access: row miss.
	if lat := d.Latency(0); lat != 100 {
		t.Errorf("cold access latency = %d", lat)
	}
	// Same row: hit.
	if lat := d.Latency(64); lat != 50 {
		t.Errorf("row hit latency = %d", lat)
	}
	// Different row, same bank (stride banks*rowBytes): miss.
	if lat := d.Latency(8 * 2048); lat != 100 {
		t.Errorf("row conflict latency = %d", lat)
	}
	st := d.Stats()
	if st.RowHits != 1 || st.RowMisses != 2 {
		t.Errorf("hits/misses = %d/%d", st.RowHits, st.RowMisses)
	}
	if st.TotalCycles != 250 {
		t.Errorf("total cycles = %d", st.TotalCycles)
	}
}

func TestBankInterleaving(t *testing.T) {
	d, _ := New(DefaultConfig())
	// Consecutive rows land in different banks: both are cold misses but
	// each bank keeps its own open row afterwards.
	d.Latency(0)
	d.Latency(2048)
	if lat := d.Latency(64); lat != 50 {
		t.Error("bank 0 row should still be open")
	}
	if lat := d.Latency(2048 + 64); lat != 50 {
		t.Error("bank 1 row should still be open")
	}
}

func TestAccessCountsByRegion(t *testing.T) {
	d, _ := New(DefaultConfig())
	d.Access(mem.Request{Addr: memmap.PBAttributesBase, Write: true})
	d.Access(mem.Request{Addr: memmap.PBListsBase})
	d.Access(mem.Request{Addr: memmap.TexturesBase})
	if d.Total() != 3 {
		t.Errorf("total = %d", d.Total())
	}
	pb := d.PB()
	if pb.Reads != 1 || pb.Writes != 1 {
		t.Errorf("PB counts = %+v", pb)
	}
	if d.Region(memmap.RegionTextures).Reads != 1 {
		t.Error("texture read not counted")
	}
	st := d.Stats()
	if st.Reads != 2 || st.Writes != 1 {
		t.Errorf("reads/writes = %d/%d", st.Reads, st.Writes)
	}
}

func TestBusyCyclesAccumulate(t *testing.T) {
	d, _ := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		d.Access(mem.Request{Addr: uint64(i) * 64})
	}
	// 64 B at 16 B/cycle = 4 cycles per access.
	if got := d.Stats().BusyCycles; got != 40 {
		t.Errorf("busy cycles = %d, want 40", got)
	}
}

func TestBandwidthDefaultApplied(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BytesPerCycle = 0 // zero means "use the default"
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Access(mem.Request{Addr: 0})
	if d.Stats().BusyCycles == 0 {
		t.Error("bandwidth default not applied")
	}
}

// writeBlocksGeometries are the bank and row geometries the WriteBlocks
// differential tests run on: the default, the smallest (one block per
// row), narrower and wider rows, and rows wider than a memory region, so
// that a run within one row can cross into the next region.
var writeBlocksGeometries = [][2]int{{8, 2048}, {1, 64}, {16, 1024}, {4, 8192}, {2, 1 << 30}}

// checkWriteBlocks drives two DRAMs of one geometry through the same prior
// accesses, then writes the run of n blocks at base into one with n
// Access calls and into the other with one WriteBlocks call. Stats, the
// per-region Counter and the open rows must agree.
func checkWriteBlocks(t *testing.T, geo [2]int, prior []mem.Request, base uint64, n int64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Banks, cfg.RowBytes = geo[0], geo[1]
	want, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := New(cfg)
	for _, r := range prior {
		want.Access(r)
		got.Access(r)
	}
	for i := int64(0); i < n; i++ {
		want.Access(mem.Request{Addr: base + uint64(i)*memmap.BlockBytes, Write: true})
	}
	got.WriteBlocks(base, n)
	if got.Stats() != want.Stats() {
		t.Fatalf("%v: %d blocks at %#x: WriteBlocks stats %+v, Access stats %+v", geo, n, base, got.Stats(), want.Stats())
	}
	if *got.Counter != *want.Counter {
		t.Fatalf("%v: %d blocks at %#x: WriteBlocks counter %+v, Access counter %+v", geo, n, base, *got.Counter, *want.Counter)
	}
	if !slices.Equal(got.rows, want.rows) {
		t.Fatalf("%v: %d blocks at %#x: WriteBlocks leaves rows %v open, Access %v", geo, n, base, got.rows, want.rows)
	}
}

// randomRun draws a run and the accesses before it: a base near the start
// or the end of a random region, or anywhere in it, block-aligned or not; n from
// 0 to 200; and up to 24 reads and writes near the base, which leave some
// banks open on the run's rows and others on different rows.
func randomRun(rng *rand.Rand) (prior []mem.Request, base uint64, n int64) {
	region := uint64(1+rng.Intn(8)) * memmap.RegionBytes
	switch rng.Intn(3) {
	case 0:
		base = region + uint64(rng.Intn(64))*memmap.BlockBytes
	case 1: // the run may cross into the next region
		base = region - uint64(1+rng.Intn(64))*memmap.BlockBytes
	default:
		base = region + uint64(rng.Int63n(1<<24))*memmap.BlockBytes
	}
	if rng.Intn(4) == 0 {
		base += uint64(1 + rng.Intn(memmap.BlockBytes-1))
	}
	n = rng.Int63n(201)
	prior = make([]mem.Request, rng.Intn(25))
	for i := range prior {
		prior[i] = mem.Request{Addr: base + uint64(rng.Int63n(1<<16)) - 1<<15, Write: rng.Intn(2) == 0}
	}
	return prior, base, n
}

// TestWriteBlocksMatchesAccess is WriteBlocks' differential test: on
// random runs across banks, rows and region boundaries, from random open
// rows, one WriteBlocks call must equal n Access calls.
func TestWriteBlocksMatchesAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, geo := range writeBlocksGeometries {
		for i := 0; i < 500; i++ {
			prior, base, n := randomRun(rng)
			checkWriteBlocks(t, geo, prior, base, n)
		}
	}
}

// TestWriteBlocksBooksEachRowOnce checks the cost model the Color Buffer
// flush relies on: a 64-block tile flush at the default geometry spans two
// rows, so it books two row-buffer lookups, and a cold DRAM misses both.
func TestWriteBlocksBooksEachRowOnce(t *testing.T) {
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.WriteBlocks(memmap.FrameBufferBase+4096, 64)
	st := d.Stats()
	if st.Writes != 64 || st.RowMisses != 2 || st.RowHits != 62 || st.ReadCycles != 0 {
		t.Errorf("tile flush stats %+v, want 64 writes, 2 row misses, 62 row hits", st)
	}
	if got := d.Region(memmap.RegionFrameBuffer); got.Writes != 64 || got.Reads != 0 {
		t.Errorf("frame-buffer counts %+v", got)
	}
}

// FuzzWriteBlocksMatchesAccess runs checkWriteBlocks on fuzzed runs: any
// base below 2^40 (far from address wrap-around), up to 1024 blocks, and
// prior accesses drawn from the seed.
func FuzzWriteBlocksMatchesAccess(f *testing.F) {
	f.Add(uint64(memmap.FrameBufferBase), uint16(64), uint8(0), int64(1))
	f.Add(uint64(memmap.TexturesBase-640), uint16(200), uint8(1), int64(2))
	f.Add(uint64(2047), uint16(3), uint8(2), int64(3))
	f.Add(uint64(12345), uint16(0), uint8(3), int64(4))
	f.Fuzz(func(t *testing.T, base uint64, n uint16, geo uint8, seed int64) {
		base &= 1<<40 - 1
		rng := rand.New(rand.NewSource(seed))
		prior := make([]mem.Request, rng.Intn(25))
		for i := range prior {
			prior[i] = mem.Request{Addr: base + uint64(rng.Int63n(1<<16)) - 1<<15, Write: rng.Intn(2) == 0}
		}
		g := writeBlocksGeometries[int(geo)%len(writeBlocksGeometries)]
		checkWriteBlocks(t, g, prior, base, int64(n%1025))
	})
}
