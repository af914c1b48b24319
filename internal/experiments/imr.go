package experiments

import (
	"fmt"
	"math"

	"tcor/internal/dram"
	"tcor/internal/geom"
	"tcor/internal/l2"
	"tcor/internal/mem"
	"tcor/internal/memmap"
)

// TBRvsIMR reproduces the background claim of §II: tile-based rendering
// keeps the color and depth buffers on chip and so cuts external memory
// traffic by roughly 2x versus a traditional immediate-mode renderer
// (Antochi et al. [4] measured a factor of 1.96).
//
// The IMR model rasterizes the same frame in submission order against
// full-screen color and depth buffers that live in DRAM behind the shared
// L2: every shaded quad reads the depth block, conditionally writes it, and
// writes the color block. Texture and geometry traffic are taken from the
// TBR baseline run (the same texels and vertices are needed either way,
// and IMR's texture locality is no better). IMR has no Parameter Buffer:
// binning traffic is TBR-only.
func (r *Runner) TBRvsIMR(alias string) (*Table, error) {
	tbr, err := r.grid(alias, gridBaseline, 64)
	if err != nil {
		return nil, err
	}
	sc, err := r.Scene(alias)
	if err != nil {
		return nil, err
	}

	// --- IMR color/depth traffic through its own L2 + DRAM. ---
	d, err := dram.New(dram.DefaultConfig())
	if err != nil {
		return nil, err
	}
	l2c, err := l2.New(l2.DefaultConfig(false), d)
	if err != nil {
		return nil, err
	}
	screen := r.Screen
	// Full-screen depth buffer (4 B/pixel) after the color buffer region.
	colorBase := memmap.FrameBufferBase
	depthBase := memmap.FrameBufferBase + 64<<20

	w, h := screen.Width, screen.Height
	qw, qh := (w+1)/2, (h+1)/2
	depth := make([]float32, qw*qh)
	var quadsShaded int64
	for f := 0; f < tbr.Frames; f++ {
		for i := range depth {
			depth[i] = math.MaxFloat32
		}
		frame := sc.Frame(f)
		for i := range frame.Prims {
			p := &frame.Prims[i]
			bb := p.BBox()
			x0, y0 := min(max(int(bb.Min.X)/2, 0), qw-1), min(max(int(bb.Min.Y)/2, 0), qh-1)
			x1, y1 := min(max(int(bb.Max.X)/2, 0), qw-1), min(max(int(bb.Max.Y)/2, 0), qh-1)
			z := (p.Depth[0] + p.Depth[1] + p.Depth[2]) / 3
			for qy := y0; qy <= y1; qy++ {
				for qx := x0; qx <= x1; qx++ {
					cx := float32(qx*2) + 1
					cy := float32(qy*2) + 1
					if !geom.PointInTriangle(geom.Vec2{X: cx, Y: cy}, p.Pos[0], p.Pos[1], p.Pos[2]) {
						continue
					}
					// Depth test against the in-memory Z buffer: one block
					// read; survivors write depth and color.
					off := uint64(qy*qw+qx) * 16 // quad = 4 px * 4 B
					l2c.Access(mem.Request{Addr: depthBase + off})
					di := qy*qw + qx
					if z >= depth[di] {
						continue
					}
					depth[di] = z
					quadsShaded++
					l2c.Access(mem.Request{Addr: depthBase + off, Write: true})
					l2c.Access(mem.Request{Addr: colorBase + off, Write: true})
				}
			}
		}
	}

	// IMR totals: its color/depth DRAM traffic plus the traffic classes it
	// shares with TBR (textures, geometry, instructions — everything the
	// baseline's DRAM saw except the Parameter Buffer and the tile flush).
	imrCD := d.Total()
	shared := tbr.DRAM.Reads + tbr.DRAM.Writes -
		(tbr.DRAMIn.PB().Reads + tbr.DRAMIn.PB().Writes) -
		tbr.DRAMIn.Region(memmap.RegionFrameBuffer).Writes
	imrTotal := imrCD + shared
	tbrTotal := tbr.DRAM.Reads + tbr.DRAM.Writes

	t := &Table{
		Title:  fmt.Sprintf("TBR vs immediate-mode rendering, %s: external memory accesses (§II, Antochi et al. report ~1.96x)", alias),
		Header: []string{"Quantity", "Accesses"},
	}
	t.AddRow("IMR color+depth traffic", fmt.Sprintf("%d", imrCD))
	t.AddRow("shared traffic (textures, geometry, shaders)", fmt.Sprintf("%d", shared))
	t.AddRow("IMR total", fmt.Sprintf("%d", imrTotal))
	t.AddRow("TBR total (baseline, incl. Parameter Buffer + tile flush)", fmt.Sprintf("%d", tbrTotal))
	t.AddRow("traffic ratio IMR/TBR", fmt.Sprintf("%.2fx", float64(imrTotal)/float64(tbrTotal)))
	t.AddRow("IMR quads shaded", fmt.Sprintf("%d", quadsShaded))
	return t, nil
}

// IMRRatio returns just the IMR/TBR external-traffic ratio (for tests).
func (r *Runner) IMRRatio(alias string) (float64, error) {
	t, err := r.TBRvsIMR(alias)
	if err != nil {
		return 0, err
	}
	var ratio float64
	if _, err := fmt.Sscanf(t.Rows[4][1], "%fx", &ratio); err != nil {
		return 0, err
	}
	return ratio, nil
}
