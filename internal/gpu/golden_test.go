package gpu

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"tcor/internal/workload"
)

// goldenDigests pins the SHA-256 of the JSON-marshaled Result of one frame
// of every Table II title under the three paper configurations. The TCOR
// rows attach a 32-deep L2 eviction trace, so the exact victim sequence of
// the dead > non-PB > live-PB replacement is pinned too. A change to any
// simulated count, cycle, energy figure or eviction decision shows up here;
// a digest may only change together with a reviewed RESULTS.md diff.
var goldenDigests = map[string]string{
	"CCS/baseline64":  "133c12eae725ada641de683620d51d241b9b11d4e22a50e16b381f96ca94a111",
	"CCS/tcor64":      "c1acf94711e2fc14c6271fc70b4d293c9fa98a46c40e632425c50fe3741af62d",
	"CCS/tcor64-nol2": "391322e9eecf38311e27f1cff2031a60ccedb260cac4b38caa8ff3cfd6e47981",
	"SoD/baseline64":  "87468f4cb410c2e9ecce746444a931265c6ac28706eec3c291e2c0f0d261c1b7",
	"SoD/tcor64":      "8c11316bd96a1dce6a723ee94d6027fa79c96c746d0727110468adec1d0dbc60",
	"SoD/tcor64-nol2": "e7d975fd261903312fe19dee511fef68cd4a1a664e197dca88ffa222af1d0340",
	"TRu/baseline64":  "0039f663a18de7caf21ba5002e5072836c47ae18d53ce295b1b188d49219a960",
	"TRu/tcor64":      "a5d9e9cba5cbf3b23399a733787486a8850d45769816b1f85ad9dcc5b9afe165",
	"TRu/tcor64-nol2": "ae9843dbd712885d719bf41c85c02e075bb8b1b9dbc2f16cd65b8910234495a9",
	"SWa/baseline64":  "c8f1a89045555ea6e9a0e74149a1e9b51c70382cdb1fa84aaedcb3bc8eaa2f18",
	"SWa/tcor64":      "927aa391c8fdc0c5ee45d91beba97f23efe2ca40d645d41834bbc148b4d2bf48",
	"SWa/tcor64-nol2": "83fb05e5eab9b47c890044735a097488e3d9a586986a4fe06e718056f0f73406",
	"CRa/baseline64":  "5494a61211549e1bc0840ca95c23805e66a1b8bcf883e921adf22449fbb2bc70",
	"CRa/tcor64":      "9827788fb72060f636c2e3c3ca0cbe80f50f2fb19ae8073d7f14e78a89ad1e36",
	"CRa/tcor64-nol2": "b35d1fd2738b3119b641ddba977f93fb2f49e237894617dc049d166420736929",
	"RoK/baseline64":  "f69bd8b5623cc88cc824a68dcb7332dab152c9f263e4b158e38a8c11eb75f66d",
	"RoK/tcor64":      "4d33e0baba7afe4ccb0916bcf90cf1a0614863838c9a78cd50da55ed0ce3479e",
	"RoK/tcor64-nol2": "ce997c6c4d156833daa601b91350331e282a08535c6eb951f5ebaeadfc246549",
	"DDS/baseline64":  "e07150102055cc085c55431a55458d81253330d259a2f61c96bb77fb1f7190aa",
	"DDS/tcor64":      "21358344f0bc71a809dda8fa3d2b062180d0ff63c0ded03976f60dc86ece46d7",
	"DDS/tcor64-nol2": "efae825d05fdbdfd4ac0d78d98bde2f14b697fa6ae9ac5e6378d97a10a6cb1a1",
	"Snp/baseline64":  "94560559f5ab5ec4d39798eeeb6c036f3dcaf9455612dd307c13df872a6a28d2",
	"Snp/tcor64":      "f3cd5aca370ecbc19f79af54854f82cb2cde9901f85337db82c7e3f45e793f3d",
	"Snp/tcor64-nol2": "2f0294cd78dbd42b7915835d1ff3581127b80615c739db018aac6a9e3888812f",
	"Mze/baseline64":  "e9fe49d2079d438f1400714b42de20e6947c847efbf1b08b81628e51e1b72c58",
	"Mze/tcor64":      "621e826031c7f4f88e7d57ba0e0f01ef42a6862d4193ab4198487f4145c6d82e",
	"Mze/tcor64-nol2": "9f53f1da6fd613385e5a852121e01510d0dbf7c0aea94181a96c94e0fa4905c9",
	"GTr/baseline64":  "17171462e0e9c7f378ccd7422912ad6678916348a100bf6b6ed2b014f17f2c57",
	"GTr/tcor64":      "7063682eaaa137343de0c723630dcb21300db189ea05b7bd935e08f56245758f",
	"GTr/tcor64-nol2": "b233fca90305a392d53ce623b1cd78f7c5d08e560ae48ba9d4534706877a1162",
}

// TestResultGoldenDigests is the frame-level determinism oracle: every
// Result must marshal to exactly the bytes the digests were recorded from.
func TestResultGoldenDigests(t *testing.T) {
	tcor, noL2 := TCOR(64*1024), TCORNoL2(64*1024)
	tcor.L2TraceDepth, noL2.L2TraceDepth = 32, 32
	configs := []struct {
		name string
		cfg  Config
	}{{"baseline64", Baseline(64 * 1024)}, {"tcor64", tcor}, {"tcor64-nol2", noL2}}
	for _, alias := range workload.Aliases() {
		sc := smallScene(t, alias, 1)
		for _, gc := range configs {
			name := alias + "/" + gc.name
			res, err := Simulate(sc, gc.cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sum := sha256.Sum256(data)
			if got, want := hex.EncodeToString(sum[:]), goldenDigests[name]; got != want {
				t.Errorf("%q: %q, // want %q", name, got, want)
			}
		}
	}
}
