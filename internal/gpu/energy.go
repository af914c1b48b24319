package gpu

import (
	"tcor/internal/energy"
	"tcor/internal/raster"
	"tcor/internal/tcor"
)

// computeEnergy aggregates the run's access counts into the energy tallies
// the paper reports: the memory-hierarchy energy of Figs. 20/21 (all caches
// plus DRAM) and the total GPU energy of Fig. 22 (hierarchy plus the shader
// and fixed-function datapaths, which are identical across configurations).
func (s *sim) computeEnergy(r *Result) {
	m := energy.DefaultModel()
	t := energy.NewTally()
	cfg := s.cfg

	// Vertex cache.
	vs := r.VertexStats
	t.Add("vertex-cache", vs.Accesses, m.SRAMRead(cfg.VertexCacheBytes, cfg.VertexCacheWays))

	// Tiling Engine L1s.
	switch cfg.Kind {
	case KindBaseline:
		per := m.SRAMRead(cfg.TileCacheBytes, cfg.TileCacheWays)
		t.Add("tile-cache", s.tileStats.reads, per)
		t.Add("tile-cache", s.tileStats.writes, per*m.WriteFactor)
	case KindTCOR:
		lcfg := tcor.DefaultListCacheConfig()
		ls := r.ListStats
		perL := m.SRAMRead(lcfg.SizeBytes, lcfg.Ways)
		t.Add("prim-list-cache", ls.Reads, perL)
		t.Add("prim-list-cache", ls.Writes, perL*m.WriteFactor)

		acfg := s.attrs.Config()
		as := r.AttrStats
		// Primitive Buffer lines are ~8 bytes (tag + control + OPT Number
		// + ABP, Fig. 8).
		probePJ := m.SRAMRead(acfg.PrimEntries*8, acfg.Ways)
		t.Add("attr-prim-buffer", as.ProbeAccesses, probePJ)
		// Attribute Buffer entries are 64-byte slots, direct addressed via
		// the ABP chain.
		bufPJ := m.SRAMRead(acfg.AttrEntries*64, 1)
		t.Add("attr-buffer", as.BufReads, bufPJ)
		t.Add("attr-buffer", as.BufWrites, bufPJ*m.WriteFactor)
	}

	// Texture caches (per-cache sizing).
	tex := s.rasterPipe.TexCacheStats()
	t.Add("texture-caches", tex.Accesses, m.SRAMRead(raster.TexCacheBytes, raster.TexCacheWays))

	// Instruction caches: fetches happen once per 4 instructions (64-bit
	// fetch groups of 16-byte instructions are amortized by the fetch
	// width), hitting essentially always; modeled arithmetically.
	instrFetches := (r.RasterStats.InstrExecuted + 3) / 4
	vertexInstr := int64(len(s.group.scene.Frame(0).Prims)) * 3 * int64(cfg.Timing.VertexInstr) * int64(r.Frames)
	t.Add("instr-caches", instrFetches+(vertexInstr+3)/4, m.SRAMRead(16*1024, 2))

	// On-chip Color and Z buffers (tile-sized SRAMs, Fig. 2): every shaded
	// quad writes color and tests depth; blended quads also read the color
	// buffer back.
	tileBuf := cfg.Screen.TileSize * cfg.Screen.TileSize * 4
	perBuf := m.SRAMRead(tileBuf, 1)
	rs := r.RasterStats
	t.Add("color-buffer", rs.QuadsShaded+rs.BlendedQuads, perBuf*m.WriteFactor)
	t.Add("color-buffer", rs.BlendedQuads, perBuf) // blend read-back
	t.Add("z-buffer", rs.Quads, perBuf)            // depth test reads
	t.Add("z-buffer", rs.QuadsShaded, perBuf*m.WriteFactor)

	// L2.
	perL2 := m.SRAMRead(cfg.L2.SizeBytes, cfg.L2.Ways)
	t.Add("l2", r.L2Stats.Reads, perL2)
	t.Add("l2", r.L2Stats.Writes, perL2*m.WriteFactor)

	// DRAM.
	t.Add("dram", r.DRAM.Reads, m.DRAMRead)
	t.Add("dram", r.DRAM.Writes, m.DRAMWrite)

	// Static energy: every SRAM leaks for the whole frame when enabled.
	if cfg.IncludeLeakage {
		cycles := r.FrameCycles + r.GeomCycles + r.PLBCycles // finish() adds these later; here FrameCycles holds the tile phase
		sramBytes := cfg.VertexCacheBytes + cfg.TileCacheBytes +
			raster.NumTexCaches*raster.TexCacheBytes + 16*1024 /* icaches */ +
			cfg.L2.SizeBytes
		t.Add("leakage", 0, 0)
		t.AddEnergy("leakage", m.Leakage(sramBytes, cycles))
	}

	r.MemHierarchyPJ = t.Total()

	// Datapaths (identical across configurations): shader ALUs and
	// fixed-function rasterization/Z/blending.
	t.Add("frag-datapath", r.RasterStats.InstrExecuted, m.OpEnergy)
	t.Add("vertex-datapath", vertexInstr, m.OpEnergy)
	t.Add("fixed-function", r.RasterStats.Fragments, m.FixedFunction)

	r.Tally = t
	r.TotalPJ = t.Total()
}
