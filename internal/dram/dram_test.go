package dram

import (
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
