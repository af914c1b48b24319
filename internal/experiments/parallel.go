package experiments

import (
	"fmt"

	"tcor/internal/gpu"
)

// The paper's conclusion motivates TCOR's Tiling Engine speedup as opening
// "the door to more aggressive Raster Pipeline implementations, including
// the use of Parallel Renderers" (§VII). This experiment models that future
// work: N Raster Pipelines consume tiles concurrently while a single Tile
// Fetcher feeds them, so the raster phase of a frame takes
//
//	max(totalFetchCycles, totalRasterCycles / N)
//
// — the fetcher becomes the serial bottleneck as N grows. A faster Tiling
// Engine raises the knee of the scaling curve.

// ParallelPoint is the frame rate at one renderer count.
type ParallelPoint struct {
	Renderers int
	BaseFPS   float64
	TCORFPS   float64
}

// ParallelResult is the renderer-scaling study for one benchmark.
type ParallelResult struct {
	Benchmark string
	SizeKB    int
	Points    []ParallelPoint
	// BaseKnee and TCORKnee are the renderer counts past which adding
	// renderers yields <10% additional FPS (the scaling limit imposed by
	// the Tiling Engine).
	BaseKnee, TCORKnee int
}

// Table renders the study.
func (p *ParallelResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Parallel renderers (%s, %d KiB Tile Cache): FPS vs renderer count (§VII future work)",
			p.Benchmark, p.SizeKB),
		Header: []string{"Renderers", "Baseline FPS", "TCOR FPS", "TCOR/Base"},
	}
	for _, pt := range p.Points {
		t.AddRow(fmt.Sprintf("%d", pt.Renderers),
			fmt.Sprintf("%.1f", pt.BaseFPS),
			fmt.Sprintf("%.1f", pt.TCORFPS),
			fmt.Sprintf("%.2fx", pt.TCORFPS/pt.BaseFPS))
	}
	t.AddRow("scaling knee", fmt.Sprintf("%d renderers", p.BaseKnee),
		fmt.Sprintf("%d renderers", p.TCORKnee), "")
	return t
}

// fpsWithRenderers projects a run's frame time onto an N-renderer Raster
// Pipeline: geometry and binning stay serial, and the tile phase is bound by
// the slower of the (serial) Tile Fetcher and the N-way raster array.
func fpsWithRenderers(res *gpu.Result, n int, clockHz float64) float64 {
	tilePhase := res.TFCycles
	if r := res.RasterCycles / int64(n); r > tilePhase {
		tilePhase = r
	}
	frame := (res.GeomCycles + res.PLBCycles + tilePhase) / int64(res.Frames)
	if frame <= 0 {
		return 0
	}
	return clockHz / float64(frame)
}

// ParallelRenderers runs the renderer-scaling study for one benchmark.
func (r *Runner) ParallelRenderers(alias string, sizeKB int) (*ParallelResult, error) {
	base, err := r.grid(alias, gridBaseline, sizeKB)
	if err != nil {
		return nil, err
	}
	tc, err := r.grid(alias, gridTCOR, sizeKB)
	if err != nil {
		return nil, err
	}
	const clock = 600e6
	out := &ParallelResult{Benchmark: alias, SizeKB: sizeKB}
	counts := []int{1, 2, 4, 8, 16, 32, 64}
	for _, n := range counts {
		out.Points = append(out.Points, ParallelPoint{
			Renderers: n,
			BaseFPS:   fpsWithRenderers(base, n, clock),
			TCORFPS:   fpsWithRenderers(tc, n, clock),
		})
	}
	knee := func(get func(ParallelPoint) float64) int {
		for i := 1; i < len(out.Points); i++ {
			if get(out.Points[i]) < 1.1*get(out.Points[i-1]) {
				return out.Points[i-1].Renderers
			}
		}
		return counts[len(counts)-1]
	}
	out.BaseKnee = knee(func(p ParallelPoint) float64 { return p.BaseFPS })
	out.TCORKnee = knee(func(p ParallelPoint) float64 { return p.TCORFPS })
	return out, nil
}
