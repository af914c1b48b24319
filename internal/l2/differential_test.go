package l2

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"tcor/internal/geom"
	"tcor/internal/mem"
	"tcor/internal/memmap"
	"tcor/internal/stats"
)

// downstream records everything a level sends to the next one, in order.
type downstream struct{ log []string }

func (d *downstream) Access(r mem.Request) { d.log = append(d.log, fmt.Sprintf("%+v", r)) }
func (d *downstream) TileRetired(pos uint16, tile geom.TileID) {
	d.log = append(d.log, fmt.Sprintf("retire %d %d", pos, tile))
}
func (d *downstream) EndFrame() { d.log = append(d.log, "endframe") }

// TestL2MatchesLineReference drives the columnar L2 and the line-record
// reference with the same seeded random streams — reads and writes, PB and
// non-PB regions, tagged and untagged requests, tile retirements and frame
// ends — and demands identical statistics, eviction traces, downstream
// request sequences, occupancy and set/way contents.
func TestL2MatchesLineReference(t *testing.T) {
	regions := []uint64{memmap.PBListsBase, memmap.PBAttributesBase, memmap.TexturesBase, memmap.FrameBufferBase, memmap.InputGeometryBase}
	geoms := []struct{ size, ways int }{{256, 4}, {2048, 1}, {4096, 4}, {8192, 8}}
	for _, g := range geoms {
		for _, enhanced := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%dB/%dway/enhanced=%v/seed%d", g.size, g.ways, enhanced, seed)
				t.Run(name, func(t *testing.T) {
					cfg := Config{SizeBytes: g.size, Ways: g.ways, Enhanced: enhanced}
					var got, want downstream
					c, err := New(cfg, &got)
					if err != nil {
						t.Fatal(err)
					}
					ref := newRef(cfg, &want)
					ring, refRing := stats.NewRing(1<<14), stats.NewRing(1<<14)
					c.SetEvictionTrace(ring)
					ref.trace = refRing

					lines := g.size / memmap.BlockBytes
					rng := rand.New(rand.NewSource(seed))
					models := [2]mem.Sink{c, ref}
					pos := 0
					for step := 0; step < 20000; step++ {
						switch x := rng.Intn(1000); {
						case x < 2:
							for _, m := range models {
								m.EndFrame()
							}
							pos = 0
						case x < 60:
							pos += 1 + rng.Intn(3)
							tile := geom.TileID(rng.Intn(64))
							for _, m := range models {
								m.TileRetired(uint16(pos), tile)
							}
						default:
							base := regions[rng.Intn(len(regions))]
							r := mem.Request{
								Addr:  base + uint64(rng.Intn(3*lines))*memmap.BlockBytes + uint64(rng.Intn(memmap.BlockBytes)),
								Write: rng.Intn(3) == 0,
							}
							if rng.Intn(2) == 0 {
								r.HasLastUse = true
								r.LastUse = uint16(max(pos-4+rng.Intn(24), 0))
							}
							for _, m := range models {
								m.Access(r)
							}
						}
						if step%500 == 0 || step == 19999 {
							if !maps.Equal(c.Occupancy(), ref.Occupancy()) {
								t.Fatalf("step %d: occupancy %v, want %v", step, c.Occupancy(), ref.Occupancy())
							}
							var keys []uint64
							for _, k := range c.lru.ResidentKeys() {
								keys = append(keys, uint64(k))
							}
							if !slices.Equal(keys, ref.residentKeys()) {
								t.Fatalf("step %d: set/way contents differ", step)
							}
						}
					}
					if c.Stats() != ref.stats {
						t.Errorf("stats %+v, want %+v", c.Stats(), ref.stats)
					}
					if !slices.Equal(ring.Events(), refRing.Events()) {
						t.Errorf("eviction traces differ (%d vs %d events)", len(ring.Events()), len(refRing.Events()))
					}
					if !slices.Equal(got.log, want.log) {
						t.Errorf("downstream sequences differ (%d vs %d entries)", len(got.log), len(want.log))
					}
					st := ref.stats
					if st.Evictions == 0 || st.Writebacks == 0 || st.Hits == 0 || (enhanced && st.DroppedWritebacks == 0) {
						t.Fatalf("the stream exercises too little: %+v", st)
					}
				})
			}
		}
	}
}
