package mem

import (
	"encoding/json"
	"testing"

	"tcor/internal/memmap"
)

func TestRequestRegion(t *testing.T) {
	r := Request{Addr: memmap.PBListsBase + 123}
	if r.Region() != memmap.RegionPBLists {
		t.Errorf("region = %v", r.Region())
	}
}

func TestCounterTallies(t *testing.T) {
	c := NewCounter()
	c.Access(Request{Addr: memmap.PBListsBase})
	c.Access(Request{Addr: memmap.PBListsBase + 64, Write: true})
	c.Access(Request{Addr: memmap.PBAttributesBase})
	c.Access(Request{Addr: memmap.TexturesBase})
	if c.Reads != 3 || c.Writes != 1 || c.Total() != 4 {
		t.Errorf("reads/writes/total = %d/%d/%d", c.Reads, c.Writes, c.Total())
	}
	lists := c.Region(memmap.RegionPBLists)
	if lists.Reads != 1 || lists.Writes != 1 {
		t.Errorf("lists = %+v", lists)
	}
	pb := c.PB()
	if pb.Reads != 2 || pb.Writes != 1 {
		t.Errorf("PB = %+v", pb)
	}
	// Untouched region is zero, not a panic.
	if got := c.Region(memmap.RegionFrameBuffer); got != (RegionCounts{}) {
		t.Errorf("untouched region = %+v", got)
	}
}

func TestCounterSignals(t *testing.T) {
	c := NewCounter()
	c.TileRetired(5, 3)
	c.TileRetired(6, 4)
	c.EndFrame()
	if c.TileRetirements != 2 || c.Frames != 1 {
		t.Errorf("retirements/frames = %d/%d", c.TileRetirements, c.Frames)
	}
}

// TestCounterJSONCompat pins the counter's JSON encoding to the byte shape
// of its pre-array representation (a ByRegion object holding only touched
// regions), which the gpu golden digests depend on.
func TestCounterJSONCompat(t *testing.T) {
	c := NewCounter()
	c.Access(Request{Addr: memmap.PBListsBase})
	c.Access(Request{Addr: memmap.PBListsBase + 64, Write: true})
	c.Access(Request{Addr: memmap.TexturesBase})
	c.TileRetired(1, 2)
	c.EndFrame()
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"Reads":2,"Writes":1,"ByRegion":{` +
		`"2":{"Reads":1,"Writes":1},"4":{"Reads":1,"Writes":0}},` +
		`"TileRetirements":1,"Frames":1}`
	if string(data) != want {
		t.Fatalf("encoding drifted:\n got %s\nwant %s", data, want)
	}
	empty, err := json.Marshal(NewCounter())
	if err != nil {
		t.Fatal(err)
	}
	if string(empty) != `{"Reads":0,"Writes":0,"ByRegion":{},"TileRetirements":0,"Frames":0}` {
		t.Fatalf("empty encoding drifted: %s", empty)
	}
}
