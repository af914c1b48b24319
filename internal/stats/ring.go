package stats

import (
	"encoding/json"
	"sync"
)

// Event is one entry of a debug event-trace ring: a replacement decision
// (or any other per-line occurrence) annotated with where it happened and
// why. Field meaning is owner-defined; the L2 records its priority class
// ("dead", "non-PB", "live-PB"), the set index, the victim's block key, the
// last-use tile tag and whether a dirty write-back was dropped.
type Event struct {
	Seq     int64  `json:"seq"`
	Kind    string `json:"kind"`
	Class   string `json:"class,omitempty"`
	Set     int    `json:"set"`
	Key     uint64 `json:"key"`
	Tile    int    `json:"tile,omitempty"`
	Dirty   bool   `json:"dirty,omitempty"`
	Dropped bool   `json:"dropped,omitempty"`
}

// Ring is a bounded, mutex-protected event buffer that keeps the last N
// recorded events. A nil *Ring is a valid no-op recorder, so hot paths can
// call Record unconditionally and pay one nil check when tracing is off.
type Ring struct {
	mu  sync.Mutex
	buf []Event
	n   int   // events currently held
	w   int   // next write position
	seq int64 // total events ever recorded
}

// NewRing returns a ring holding the last n events; n <= 0 returns nil (the
// no-op recorder).
func NewRing(n int) *Ring {
	if n <= 0 {
		return nil
	}
	return &Ring{buf: make([]Event, n)}
}

// Record appends an event, overwriting the oldest once full. The ring
// assigns Seq (events ever recorded, starting at 0).
func (r *Ring) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e.Seq = r.seq
	r.seq++
	r.buf[r.w] = e
	r.w = (r.w + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Events returns the retained events oldest-first.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	start := (r.w - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// ringJSON is the encoded form of a Ring: capacity, lifetime count and the
// retained events oldest-first, so a result holding a debug trace encodes
// the trace with it (the gpu golden digests cover traced runs). The
// encoding is one-way.
type ringJSON struct {
	Cap    int     `json:"cap"`
	Seq    int64   `json:"seq"`
	Events []Event `json:"events,omitempty"`
}

// MarshalJSON encodes the ring's capacity, lifetime count and retained
// events. A nil ring encodes as null.
func (r *Ring) MarshalJSON() ([]byte, error) {
	if r == nil {
		return []byte("null"), nil
	}
	r.mu.Lock()
	cap, seq := len(r.buf), r.seq
	r.mu.Unlock()
	return json.Marshal(ringJSON{Cap: cap, Seq: seq, Events: r.Events()})
}

// Total returns how many events were ever recorded (including overwritten
// ones); 0 for a nil ring.
func (r *Ring) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}
