// Package workload synthesizes the paper's benchmark suite.
//
// The paper evaluates TCOR on GPU traces of ten commercial Android games
// (Table II). Those traces are proprietary, so this package generates
// synthetic scenes that are calibrated, per benchmark, to the published
// workload statistics that actually determine replacement-policy behaviour:
// the Parameter Buffer footprint, the average primitive re-use (tiles
// overlapped per primitive), 2D vs 3D structure (background layers), texture
// footprint and shader program length. Scene generation is deterministic:
// a given Spec always produces the same frames.
package workload

import "fmt"

// Spec describes one benchmark of the suite.
type Spec struct {
	Name     string // full Google Play name
	Alias    string // the paper's 3-letter alias
	Installs int    // millions of installs (Table II)
	Genre    string
	ThreeD   bool // "Type" column: 3D vs 2D

	// PBFootprintMiB is the Parameter Buffer memory footprint target (Table
	// II, "Parameter Buffer Footprint").
	PBFootprintMiB float64
	// AvgPrimReuse is the average number of tiles overlapped per primitive
	// (Table II, "Avg Prim Re-use").
	AvgPrimReuse float64

	// TextureMiB is the texture working-set footprint. The paper quotes RoK
	// at ~6.8 MiB and SWa at ~0.4 MiB (§IV-B); the rest are plausible
	// interpolations by genre.
	TextureMiB float64
	// ShaderInstrPerPixel is the average fragment shader length. The paper
	// quotes CCS at 4 and DDS at 20 (§IV-B).
	ShaderInstrPerPixel int

	// MeanAttrs is the mean number of attributes per primitive (the paper
	// uses ~3 as the average, §III-C1).
	MeanAttrs float64

	// Frames is the number of animation frames to simulate.
	Frames int
	// Seed drives all randomness for this benchmark.
	Seed int64
}

// maxPBFootprintMiB bounds a spec's Parameter Buffer footprint target, far
// above Table II's largest (DDS, 1.81 MiB): Generate sizes its frames from
// the target, so an unbounded one would allocate without limit.
const maxPBFootprintMiB = 64

// Validate reports whether the spec is self-consistent. Every bound is
// written so that NaN fails it.
func (s Spec) Validate() error {
	if s.Alias == "" {
		return fmt.Errorf("workload: spec needs an alias")
	}
	if !(s.PBFootprintMiB > 0 && s.PBFootprintMiB <= maxPBFootprintMiB) {
		return fmt.Errorf("workload %s: PB footprint %v MiB out of (0,%d]", s.Alias, s.PBFootprintMiB, maxPBFootprintMiB)
	}
	if !(s.AvgPrimReuse >= 1) {
		return fmt.Errorf("workload %s: average reuse %v must be >= 1 (every primitive overlaps at least one tile)", s.Alias, s.AvgPrimReuse)
	}
	if !(s.MeanAttrs >= 1 && s.MeanAttrs <= 15) {
		return fmt.Errorf("workload %s: mean attributes %v out of [1,15]", s.Alias, s.MeanAttrs)
	}
	if !(s.TextureMiB >= 0) {
		return fmt.Errorf("workload %s: texture footprint %v must not be negative", s.Alias, s.TextureMiB)
	}
	if s.ShaderInstrPerPixel < 0 {
		return fmt.Errorf("workload %s: shader length %d must not be negative", s.Alias, s.ShaderInstrPerPixel)
	}
	if s.Frames <= 0 {
		return fmt.Errorf("workload %s: frames must be positive", s.Alias)
	}
	return nil
}

// Suite returns the ten benchmarks of Table II in paper order.
func Suite() []Spec {
	mk := func(name, alias string, installs int, genre string, threeD bool,
		pbMiB, reuse, texMiB float64, shader int, seed int64) Spec {
		return Spec{
			Name: name, Alias: alias, Installs: installs, Genre: genre,
			ThreeD: threeD, PBFootprintMiB: pbMiB, AvgPrimReuse: reuse,
			TextureMiB: texMiB, ShaderInstrPerPixel: shader,
			// §III-C1 quotes "around 3 attributes" as the average, but the
			// Table II columns are only mutually consistent at ~1.4: TRu
			// has 11 prims/tile over 1470 tiles at re-use 2.8, i.e. ~5800
			// primitives in a 0.55 MiB Parameter Buffer — ~98 bytes per
			// primitive, which is 1.37 block-aligned attributes plus its
			// PMDs (DDS gives 1.25 the same way). We follow Table II.
			MeanAttrs: 1.4, Frames: 2, Seed: seed,
		}
	}
	return []Spec{
		mk("Candy Crush Saga", "CCS", 1000, "Puzzle", false, 0.17, 5.9, 2.0, 4, 101),
		mk("Sonic Dash", "SoD", 100, "Arcade", true, 0.14, 6.9, 3.0, 8, 102),
		mk("Temple Run", "TRu", 500, "Arcade", true, 0.55, 2.8, 3.5, 10, 103),
		mk("Shoot Strike War Fire", "SWa", 10, "Shooter", true, 0.28, 3.7, 0.4, 12, 104),
		mk("City Racing 3D", "CRa", 50, "Racing", true, 0.86, 2.0, 4.0, 14, 105),
		mk("Rise of Kingdoms: Lost Crusade", "RoK", 10, "Strategy", false, 0.2, 3.6, 6.8, 6, 106),
		mk("Derby Destruction Simulator", "DDS", 10, "Racing", true, 1.81, 1.4, 5.0, 20, 107),
		mk("Sniper 3D", "Snp", 500, "Shooter", true, 0.71, 1.47, 4.5, 16, 108),
		mk("3D Maze 2: Diamonds & Ghosts", "Mze", 10, "Arcade", true, 1.22, 2.4, 2.5, 12, 109),
		mk("Gravitytetris", "GTr", 5, "Puzzle", true, 0.12, 6.9, 1.0, 5, 110),
	}
}

// ByAlias returns the suite spec with the given alias.
func ByAlias(alias string) (Spec, error) {
	for _, s := range Suite() {
		if s.Alias == alias {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", alias)
}

// Aliases returns the benchmark aliases in paper order.
func Aliases() []string {
	suite := Suite()
	out := make([]string, len(suite))
	for i, s := range suite {
		out[i] = s.Alias
	}
	return out
}
