package experiments

import (
	"testing"
	"time"

	"tcor/internal/gpu"
)

func TestPrewarmParallelMatchesSequential(t *testing.T) {
	a := fastRunner("CCS", "GTr")
	if err := a.Prewarm(8); err != nil {
		t.Fatal(err)
	}
	figA, err := a.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	b := fastRunner("CCS", "GTr")
	figB, err := b.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	for i := range figA.Rows {
		if figA.Rows[i] != figB.Rows[i] {
			t.Errorf("row %d differs: %+v vs %+v", i, figA.Rows[i], figB.Rows[i])
		}
	}
}

// TestPrewarmColdSuiteMisses checks the memo accounting of a cold suite
// prewarm: one sweep job per benchmark fills all six of its cells from one
// grouped simulation, and every cell still counts as exactly one runs miss.
func TestPrewarmColdSuiteMisses(t *testing.T) {
	r := fastRunner()
	if err := r.Prewarm(0); err != nil {
		t.Fatal(err)
	}
	snap := r.Metrics().Snapshot()
	n := int64(len(r.Suite()))
	if got := snap.Get("memo.runs.misses"); got != 6*n {
		t.Errorf("memo.runs.misses = %d, want %d (six cells per benchmark)", got, 6*n)
	}
	if got := snap.Get("memo.runs.hits"); got != 0 {
		t.Errorf("memo.runs.hits = %d on a cold prewarm, want 0", got)
	}
	if got := snap.Get("memo.scenes.misses"); got != n {
		t.Errorf("memo.scenes.misses = %d, want %d", got, n)
	}
}

// TestRunCoalescesWithRunningGroup checks that a prewarm group claims its
// cells before it simulates: a Run of one of its keys made while the
// group is running waits for the group's result instead of simulating the
// cell a second time.
func TestRunCoalescesWithRunningGroup(t *testing.T) {
	r := fastRunner("GTr")
	hits := r.Metrics().Counter("memo.runs.hits")
	cell := prewarmConfigs("GTr")[1]
	got := make(chan *gpu.Result, 1)
	// The hook runs inside the group's scene generation, after it claimed
	// its cells and before it simulates.
	r.testSceneHook = func(string) {
		go func() {
			res, err := r.Run(cell.alias, cell.name, cell.cfg)
			if err != nil {
				t.Error(err)
			}
			got <- res
		}()
		deadline := time.Now().Add(30 * time.Second)
		for hits.Load() == 0 {
			if time.Now().After(deadline) {
				t.Error("the concurrent Run never reached the claimed cell")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := r.Prewarm(1); err != nil {
		t.Fatal(err)
	}
	res := <-got
	want, err := r.Run(cell.alias, cell.name, cell.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res != want {
		t.Error("the concurrent Run returned a different result than the group's")
	}
	snap := r.Metrics().Snapshot()
	if got := snap.Get("memo.runs.misses"); got != 6 {
		t.Errorf("memo.runs.misses = %d, want 6: the concurrent Run simulated again", got)
	}
	if got := snap.Get("memo.runs.hits"); got != 2 {
		t.Errorf("memo.runs.hits = %d, want 2 (the concurrent Run and the check)", got)
	}
}
