package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"tcor/internal/geom"
)

// streamDigests pins the primitive stream of every suite scene: the ID,
// positions, depths and attribute count of each primitive of each frame,
// hashed in program order. The values were recorded before primitives
// stopped carrying attribute values, so they also pin that Generate draws
// the same random numbers as it did then.
var streamDigests = map[string]string{
	"CCS": "8e3eb6014af89ecb8045298138554a553ccfc282da96822057eb334ef3a474d8",
	"SoD": "cff057bd1bd65b3181a0ce45058a2bf835263caae662cd418ec329c9e711afe4",
	"TRu": "4e08af498b373e9ff3bcc729880f9ace6ffc92b49c7f4a562ad7d073d21802a4",
	"SWa": "fe4e89fb28b79ca89ecc6fd778a70ee266f7a362d9010170dd063d1ad42203a7",
	"CRa": "88d57b6bf89b4bcb0e480981dd4703df49a86df1d62d408a0684f3f7f1c27f2b",
	"RoK": "773205fa8138ad43115b4d1c9cff89a4fd0ffb4e81139dadcecbb289b03605c5",
	"DDS": "af52f0656f43707c41ee7082e2c2921654e1bb05bd49291cea0e748bc6616cab",
	"Snp": "3cad88d03d9ac9518eab53f7791e25607e0b74e1006e1cb4b77ff63406259cb6",
	"Mze": "6f43f56a91910b96ed18fdc26c413e422dd01bbe6ab64bbf2ff6a17b17908282",
	"GTr": "f05f670ec97806ecd2833acae041d00dc4905bd6637ed7d26fa6093d5c310cb5",
}

func primDigest(frames []Frame) string {
	h := sha256.New()
	var b []byte
	for f := range frames {
		b = binary.LittleEndian.AppendUint32(b[:0], uint32(len(frames[f].Prims)))
		h.Write(b)
		for i := range frames[f].Prims {
			p := &frames[f].Prims[i]
			b = binary.LittleEndian.AppendUint32(b[:0], p.ID)
			for v := 0; v < 3; v++ {
				b = binary.LittleEndian.AppendUint32(b, math.Float32bits(p.Pos[v].X))
				b = binary.LittleEndian.AppendUint32(b, math.Float32bits(p.Pos[v].Y))
				b = binary.LittleEndian.AppendUint32(b, math.Float32bits(p.Depth[v]))
			}
			b = append(b, p.NumAttrs)
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSuiteStreamDigests(t *testing.T) {
	screen := geom.DefaultScreen()
	for _, spec := range Suite() {
		sc, err := Generate(spec, screen)
		if err != nil {
			t.Fatal(err)
		}
		got := primDigest(sc.frames)
		if want := streamDigests[spec.Alias]; got != want {
			t.Errorf("%s: stream digest %s, want %s", spec.Alias, got, want)
		}
	}
}

// TestGenerateAllocsIndependentOfPrims guards that Generate allocates per
// synthesized frame (its RNG, the primitive slice and its growth, the
// overlap buffer), never per primitive: every suite scene, and one scaled
// to a Parameter Buffer sixteen times larger, stays under one fixed bound
// while the scenes range from hundreds to tens of thousands of primitives.
func TestGenerateAllocsIndependentOfPrims(t *testing.T) {
	screen := geom.DefaultScreen()
	big, err := ByAlias("GTr")
	if err != nil {
		t.Fatal(err)
	}
	big.Alias, big.PBFootprintMiB = "GTrx16", big.PBFootprintMiB*16
	for _, spec := range append(Suite(), big) {
		spec.Frames = 1
		var prims int
		allocs := testing.AllocsPerRun(1, func() {
			sc, err := Generate(spec, screen)
			if err != nil {
				t.Fatal(err)
			}
			prims = sc.Stats().Primitives
		})
		t.Logf("%s: %d primitives, %.0f allocations", spec.Alias, prims, allocs)
		if allocs > maxGenerateAllocs {
			t.Errorf("%s: %.0f allocations for %d primitives, want at most %d",
				spec.Alias, allocs, prims, maxGenerateAllocs)
		}
	}
}

const maxGenerateAllocs = 128
