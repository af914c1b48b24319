package gpu

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tcor/internal/stats"
	"tcor/internal/tiling"
)

// spanTree renders a tracer's spans in creation (ID) order, one line per
// span: its index, its parent's index (-1 for a root), its name and its
// attributes sorted by key. Wall-clock fields are left out, so the
// rendering is a deterministic function of the run.
func spanTree(spans []stats.SpanRecord) string {
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	index := make(map[int64]int, len(spans))
	var b strings.Builder
	for i, s := range spans {
		index[s.ID] = i
		parent := -1
		if s.Parent != 0 {
			p, ok := index[s.Parent]
			if !ok {
				return fmt.Sprintf("span %d (%s) has unknown parent %d", i, s.Name, s.Parent)
			}
			parent = p
		}
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "%d %d %s/%s", i, parent, s.Cat, s.Name)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, s.Attrs[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// spanTreeDigests pins spanTree's SHA-256 for the two-frame CCS TCOR run of
// TestSimulateSpanTree, by TraceTiles.
var spanTreeDigests = map[bool]string{
	false: "a15f70cce53b53d7744a911716404e2af0ad0543fb9cbcf721ff3d20ac7c57eb",
	true:  "b832e565ddd075b1d2831e87d4eacb50a50679295a5984f30ed0023de09e5ec1",
}

// TestSimulateSpanTree pins the span tree one Simulate call records: per
// frame, frame{frame} > geometry{prims}, binning, tiles, and with
// TraceTiles one tile{tile, prims, tfCycles, rasterCycles} span per tile
// under tiles, in traversal order. The per-tile cycle attributes must add
// up to the Result's per-frame and whole-run totals.
func TestSimulateSpanTree(t *testing.T) {
	sc := smallScene(t, "CCS", 2)
	for _, tiles := range []bool{false, true} {
		t.Run("TraceTiles="+strconv.FormatBool(tiles), func(t *testing.T) {
			cfg := TCOR(64 * 1024)
			cfg.Tracer = stats.NewTracer(1 << 14)
			cfg.TraceTiles = tiles
			res, err := Simulate(sc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Tracer.Dropped() != 0 {
				t.Fatalf("tracer dropped %d spans", cfg.Tracer.Dropped())
			}
			spans := cfg.Tracer.Spans()
			sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
			trav, err := tiling.NewTraversal(cfg.Screen, cfg.Order)
			if err != nil {
				t.Fatal(err)
			}

			var rasterSum int64
			i := 0
			next := func(name string, parent int64) stats.SpanRecord {
				t.Helper()
				if i >= len(spans) {
					t.Fatalf("span %d: want %s, the trace ended", i, name)
				}
				s := spans[i]
				i++
				if s.Name != name || s.Cat != "gpu" || s.Parent != parent {
					t.Fatalf("span %d = %s/%s parent %d, want gpu/%s parent %d", i-1, s.Cat, s.Name, s.Parent, name, parent)
				}
				return s
			}
			for f := 0; f < sc.NumFrames(); f++ {
				frame := next("frame", 0)
				if got := frame.Attrs["frame"]; got != strconv.Itoa(f) || len(frame.Attrs) != 1 {
					t.Fatalf("frame %d attrs = %v", f, frame.Attrs)
				}
				prims := sc.Frame(f).Prims
				geo := next("geometry", frame.ID)
				if got := geo.Attrs["prims"]; got != strconv.Itoa(len(prims)) || len(geo.Attrs) != 1 {
					t.Fatalf("frame %d geometry attrs = %v, want prims=%d", f, geo.Attrs, len(prims))
				}
				if bin := next("binning", frame.ID); len(bin.Attrs) != 0 {
					t.Fatalf("frame %d binning attrs = %v", f, bin.Attrs)
				}
				tilesSpan := next("tiles", frame.ID)
				if len(tilesSpan.Attrs) != 0 {
					t.Fatalf("frame %d tiles attrs = %v", f, tilesSpan.Attrs)
				}
				if !tiles {
					continue
				}
				b, err := tiling.Bin(cfg.Screen, trav, prims)
				if err != nil {
					t.Fatal(err)
				}
				var tf int64
				for _, tile := range trav.Seq {
					sp := next("tile", tilesSpan.ID)
					a := sp.Attrs
					if len(a) != 4 || a["tile"] != strconv.Itoa(int(tile)) || a["prims"] != strconv.Itoa(len(b.Lists[tile])) {
						t.Fatalf("frame %d tile %d attrs = %v, want tile=%d prims=%d", f, tile, a, tile, len(b.Lists[tile]))
					}
					c, err1 := strconv.ParseInt(a["tfCycles"], 10, 64)
					r, err2 := strconv.ParseInt(a["rasterCycles"], 10, 64)
					if err1 != nil || err2 != nil {
						t.Fatalf("frame %d tile %d cycle attrs = %v", f, tile, a)
					}
					tf += c
					rasterSum += r
				}
				if tf != res.PerFrame[f].TFCycles {
					t.Errorf("frame %d tile spans sum to %d TF cycles, Result says %d", f, tf, res.PerFrame[f].TFCycles)
				}
			}
			if i != len(spans) {
				t.Fatalf("%d spans recorded, want %d", len(spans), i)
			}
			if tiles && rasterSum != res.RasterCycles {
				t.Errorf("tile spans sum to %d raster cycles, Result says %d", rasterSum, res.RasterCycles)
			}

			sum := sha256.Sum256([]byte(spanTree(spans)))
			if got := hex.EncodeToString(sum[:]); got != spanTreeDigests[tiles] {
				t.Errorf("span tree digest %s, want %s", got, spanTreeDigests[tiles])
			}
		})
	}
}
