package gpu

import (
	"testing"

	"tcor/internal/memmap"
	"tcor/internal/tiling"
)

// Traffic-conservation invariants: requests cannot appear or vanish between
// levels of the hierarchy. These cross-validate the independent counters
// kept by the L1 caches, the L2 ingress tee, the L2 itself and the DRAM
// model — an accounting bug anywhere breaks one of the identities.

// instrFillBlocks mirrors sim.instrFills' per-frame block counts for the
// CCS benchmark these tests use (fragment shader of 4 instructions).
func instrFillBlocks(res *Result, cfg Config) int64 {
	const fragInstr = 4 // CCS, Table II
	fragBlocks := (fragInstr*16 + memmap.BlockBytes - 1) / memmap.BlockBytes
	vblocks := int64(cfg.Timing.VertexInstr)*16/memmap.BlockBytes + 1
	return (int64(fragBlocks) + vblocks) * int64(res.Frames)
}

func TestTrafficConservationTCOR(t *testing.T) {
	sc := smallScene(t, "CCS", 2)
	cfg := TCOR(64 * 1024)
	res, err := Simulate(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// L2 ingress reads must equal the sum of every L1's fill/fetch
	// requests.
	wantReads := res.ListStats.L2Reads +
		res.AttrStats.L2AttrReads +
		res.VertexL2Reads +
		res.RasterStats.TexMisses +
		instrFillBlocks(res, cfg)
	if res.L2In.Reads != wantReads {
		t.Errorf("L2 ingress reads %d != sum of L1 requests %d", res.L2In.Reads, wantReads)
	}

	// L2 ingress writes: list write-backs + attribute write-backs/bypasses.
	wantWrites := res.ListStats.L2Writes + res.AttrStats.L2AttrWrites
	if res.L2In.Writes != wantWrites {
		t.Errorf("L2 ingress writes %d != sum of L1 write-backs %d", res.L2In.Writes, wantWrites)
	}

	// The L2 sees exactly the ingress stream.
	if res.L2Stats.Reads != res.L2In.Reads || res.L2Stats.Writes != res.L2In.Writes {
		t.Errorf("L2 stats (%d/%d) != ingress (%d/%d)",
			res.L2Stats.Reads, res.L2Stats.Writes, res.L2In.Reads, res.L2In.Writes)
	}

	// DRAM reads are exactly the L2's fills; DRAM writes are L2 write-backs
	// plus the Color Buffer flush (which bypasses the L2).
	if res.DRAM.Reads != res.L2Stats.MemReads {
		t.Errorf("DRAM reads %d != L2 fills %d", res.DRAM.Reads, res.L2Stats.MemReads)
	}
	wantDRAMWrites := res.L2Stats.Writebacks + res.RasterStats.FBBlocksFlushed
	if res.DRAM.Writes != wantDRAMWrites {
		t.Errorf("DRAM writes %d != L2 writebacks %d + FB flush %d",
			res.DRAM.Writes, res.L2Stats.Writebacks, res.RasterStats.FBBlocksFlushed)
	}

	// Hits + misses account for every access at both cache levels.
	if res.L2Stats.Hits+res.L2Stats.Misses != res.L2Stats.Reads+res.L2Stats.Writes {
		t.Error("L2 hits+misses != accesses")
	}
	as := res.AttrStats
	if as.ReadHits+as.ReadMisses != as.Reads {
		t.Error("attribute cache read accounting broken")
	}
	if as.WriteInserts+as.WriteBypasses > as.Writes {
		t.Error("attribute cache write accounting broken")
	}
}

func TestTrafficConservationBaseline(t *testing.T) {
	sc := smallScene(t, "CCS", 2)
	cfg := Baseline(64 * 1024)
	res, err := Simulate(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}

	wantReads := res.TileL2Reads +
		res.VertexL2Reads +
		res.RasterStats.TexMisses +
		instrFillBlocks(res, cfg)
	if res.L2In.Reads != wantReads {
		t.Errorf("L2 ingress reads %d != sum of L1 requests %d", res.L2In.Reads, wantReads)
	}
	if res.L2In.Writes != res.TileL2Writes {
		t.Errorf("L2 ingress writes %d != tile cache write-backs %d",
			res.L2In.Writes, res.TileL2Writes)
	}
	if res.DRAM.Reads != res.L2Stats.MemReads {
		t.Errorf("DRAM reads %d != L2 fills %d", res.DRAM.Reads, res.L2Stats.MemReads)
	}
	if res.DRAM.Writes != res.L2Stats.Writebacks+res.RasterStats.FBBlocksFlushed {
		t.Error("DRAM write conservation broken")
	}
	// The baseline L2 must never drop write-backs (no dead-line logic).
	if res.L2Stats.DroppedWritebacks != 0 || res.L2Stats.DeadEvictions != 0 {
		t.Error("baseline L2 used dead-line machinery")
	}
}

// TestTileWritebacksSplitAtFrameEnd pins the split tcorsim prints for the
// baseline Tile Cache: TileStats.Writebacks minus TileL2Writes is exactly
// the dirty lines the frame-end flush drops with the recycled Parameter
// Buffer. It steps group.runFrame by hand and reads the cache's
// Writebacks on either side of each endFrame.
func TestTileWritebacksSplitAtFrameEnd(t *testing.T) {
	sc := smallScene(t, "CCS", 2)
	cfg := Baseline(128 * 1024)
	g, err := newGroup(sc, []Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	s := g.sims[0]
	var dropped int64
	for f := 0; f < sc.NumFrames(); f++ {
		prims := sc.Frame(f).Prims
		s.beginFrame(f, prims)
		binning, err := tiling.Bin(s.cfg.Screen, s.trav, prims)
		if err != nil {
			t.Fatal(err)
		}
		s.replayPLB(binning)
		for pos := range binning.Traversal.Seq {
			tiling.ReplayTile(binning, s.listLayout, s.attrLayout, pos, s)
		}
		before := s.tile.Stats().Writebacks
		s.endFrame()
		dropped += s.tile.Stats().Writebacks - before
	}
	res := s.finish()
	if dropped == 0 {
		t.Fatal("no dirty line reached a frame end; the scene does not exercise the flush")
	}
	if got := res.TileStats.Writebacks - res.TileL2Writes; got != dropped {
		t.Errorf("writebacks %d - L2 writes %d = %d, flush drops %d",
			res.TileStats.Writebacks, res.TileL2Writes, got, dropped)
	}
	solo, err := Simulate(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if solo.TileStats != res.TileStats || solo.TileL2Writes != res.TileL2Writes {
		t.Errorf("stepped run diverges from Simulate: %+v/%d vs %+v/%d",
			res.TileStats, res.TileL2Writes, solo.TileStats, solo.TileL2Writes)
	}
}

func TestRegionSeparation(t *testing.T) {
	// Frame buffer traffic must bypass the L2; Parameter Buffer traffic
	// must never appear at the frame-buffer counter; texture traffic is
	// read-only everywhere.
	sc := smallScene(t, "SWa", 1)
	for _, cfg := range []Config{Baseline(64 * 1024), TCOR(64 * 1024)} {
		res, err := Simulate(sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.L2In.Region(memmap.RegionFrameBuffer); got.Reads+got.Writes != 0 {
			t.Errorf("%v: frame-buffer traffic through the L2: %+v", cfg.Kind, got)
		}
		if got := res.DRAMIn.Region(memmap.RegionFrameBuffer); got.Writes == 0 || got.Reads != 0 {
			t.Errorf("%v: frame-buffer DRAM traffic wrong: %+v", cfg.Kind, got)
		}
		if got := res.L2In.Region(memmap.RegionTextures); got.Writes != 0 {
			t.Errorf("%v: texture writes are impossible: %+v", cfg.Kind, got)
		}
		if got := res.DRAMIn.Region(memmap.RegionInputGeometry); got.Writes != 0 {
			t.Errorf("%v: input geometry is read-only: %+v", cfg.Kind, got)
		}
	}
}

func TestOutputQueueDepthAffectsOnlyLocks(t *testing.T) {
	// A deeper output queue holds locks longer; traffic may shift slightly
	// (locked lines cannot be victims) but conservation and determinism
	// must hold at any depth.
	sc := smallScene(t, "GTr", 1)
	for _, depth := range []int{1, 8, 128} {
		cfg := TCOR(64 * 1024)
		cfg.OutputQueueDepth = depth
		res, err := Simulate(sc, cfg)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if res.AttrStats.Reads == 0 {
			t.Fatalf("depth %d: no reads", depth)
		}
		wantWrites := res.ListStats.L2Writes + res.AttrStats.L2AttrWrites
		if res.L2In.Writes != wantWrites {
			t.Errorf("depth %d: write conservation broken", depth)
		}
	}
}
