package cluster

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"tcor/internal/resilience"
	"tcor/internal/serve"
	"tcor/internal/stats"
)

// Cluster-wide trace stitching. One request fanned out through the gateway
// leaves span sets in several processes: the gateway's own tracer (root
// span plus one gw.attempt/gw.probe/gw.subsweep span per upstream try) and
// each shard's tracer (the spans its daemon recorded under the propagated
// trace ID). GET /v1/cluster/trace/<id> pulls every process's slice over
// the shards' /debug/trace?trace= endpoints and merges them into one
// Chrome trace_event / Perfetto export:
//
//   - one pid per process, named via process_name metadata events
//     ("gateway" = pid 0, "shard-<i>" = pid i+1, ring order);
//   - per-process clock-skew correction derived from the remote-parent
//     links: a shard's spans are shifted forward just enough that no span
//     starts before the gateway span that caused it, so the waterfall
//     stays causally ordered even when shard clocks run behind;
//   - span identity in the args (spanId/parentSpanId hex), so the
//     parent-child edges the traceparent header carried remain inspectable
//     in the viewer.
//
// A shard that cannot be reached — dead, or skipped because its breaker is
// open — degrades the export to a partial one: its status lands in
// otherData and a Warning header flags the response, but every reachable
// process's spans are still served.

// TraceCollectTimeout bounds the whole shard span-set collection.
const TraceCollectTimeout = 5 * time.Second

// traceEvent is one trace_event entry of the stitched export ("X" complete
// events for spans, "M" metadata events for process names).
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// clusterTraceDoc is the export container: trace_event JSON with the
// collection's bookkeeping (trace ID, per-shard fetch status) in
// otherData, where trace viewers ignore it.
type clusterTraceDoc struct {
	TraceEvents []traceEvent      `json:"traceEvents"`
	OtherData   map[string]string `json:"otherData"`
}

// processSet is one process's contribution: its pid slot and span slice.
type processSet struct {
	pid   int
	name  string
	spans []stats.SpanRecord
}

func (g *Gateway) handleClusterTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		g.shell.WriteError(w, serve.MethodNotAllowed(http.MethodGet))
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/v1/cluster/trace/")
	id, err := stats.ParseTraceID(raw)
	if err != nil {
		g.shell.WriteError(w, serve.BadRequest("trace ID: %v", err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), TraceCollectTimeout)
	defer cancel()

	doc, partial := g.stitchTrace(ctx, id)
	if partial {
		w.Header().Set("Warning", `199 tcord "partial trace: some shards unreachable"`)
	}
	g.shell.WriteJSON(w, doc)
}

// stitchTrace collects every process's span set for id and merges them.
// The bool reports a partial collection (at least one shard unreachable).
func (g *Gateway) stitchTrace(ctx context.Context, id stats.TraceID) (clusterTraceDoc, bool) {
	sets := make([]processSet, 1+len(g.shards))
	sets[0] = processSet{pid: 0, name: "gateway", spans: g.tracer.TraceSpans(id)}

	status := make([]string, len(g.shards))
	fanOut(len(g.shards), func(i int) {
		sh := g.shards[i]
		sets[i+1] = processSet{pid: i + 1, name: "shard-" + strconv.Itoa(i)}
		// Breaker-aware: a shard the router already considers down is not
		// worth a fetch timeout, and a trace pull must never count against
		// the breaker window that routing decisions read.
		if sh.brk.State() == resilience.Open {
			status[i] = "skipped: breaker open"
			return
		}
		ts, err := sh.client.TraceSpans(ctx, id)
		if err != nil {
			status[i] = "error: " + err.Error()
			return
		}
		status[i] = "ok"
		sets[i+1].spans = ts.Spans
	})

	applySkewOffsets(sets)

	doc := clusterTraceDoc{
		TraceEvents: []traceEvent{},
		OtherData:   map[string]string{"traceId": id.String()},
	}
	partial := false
	for i, st := range status {
		doc.OtherData["shard-"+strconv.Itoa(i)] = st
		if st != "ok" {
			partial = true
		}
	}

	// A common origin keeps timestamps small and two stitches of the same
	// span sets byte-identical: everything is relative to the earliest
	// (skew-corrected) span start across the cluster.
	var t0 time.Time
	for _, set := range sets {
		for _, s := range set.spans {
			if t0.IsZero() || s.Start.Before(t0) {
				t0 = s.Start
			}
		}
	}

	for _, set := range sets {
		if len(set.spans) == 0 {
			continue
		}
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", Pid: set.pid,
			Args: map[string]string{"name": set.name},
		})
		for _, s := range set.spans {
			args := make(map[string]string, len(s.Attrs)+2)
			for k, v := range s.Attrs {
				args[k] = v
			}
			args["spanId"] = s.SpanID.String()
			if !s.ParentSpan.IsZero() {
				args["parentSpanId"] = s.ParentSpan.String()
			}
			doc.TraceEvents = append(doc.TraceEvents, traceEvent{
				Name: s.Name, Cat: s.Cat, Ph: "X",
				Ts:  float64(s.Start.Sub(t0)) / float64(time.Microsecond),
				Dur: float64(s.Dur) / float64(time.Microsecond),
				Pid: set.pid, Tid: s.Root, Args: args,
			})
		}
	}
	// Deterministic output: metadata first, then spans by (pid, start,
	// span ID) — the span ID tiebreak totals the order when two spans share
	// a start timestamp.
	sort.SliceStable(doc.TraceEvents, func(i, j int) bool {
		a, b := doc.TraceEvents[i], doc.TraceEvents[j]
		if (a.Ph == "M") != (b.Ph == "M") {
			return a.Ph == "M"
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		return a.Args["spanId"] < b.Args["spanId"]
	})
	return doc, partial
}

// applySkewOffsets shifts each non-gateway process's spans forward so no
// span starts before its remote parent. The remote-parent links carried by
// the traceparent header give one causal constraint per cross-process
// edge: the child (the receiving process's root-of-process span) cannot
// really have started before the gateway span that issued the request, so
// any negative gap is clock skew and the process's whole span set shifts
// by the largest such gap. Gateway time (pid 0) is the reference and never
// moves.
func applySkewOffsets(sets []processSet) {
	starts := make(map[stats.SpanID]time.Time)
	for _, s := range sets[0].spans {
		starts[s.SpanID] = s.Start
	}
	for i := 1; i < len(sets); i++ {
		var offset time.Duration
		for _, s := range sets[i].spans {
			if !s.Remote || s.ParentSpan.IsZero() {
				continue
			}
			parentStart, ok := starts[s.ParentSpan]
			if !ok {
				continue
			}
			if gap := parentStart.Sub(s.Start); gap > offset {
				offset = gap
			}
		}
		if offset <= 0 {
			continue
		}
		for j := range sets[i].spans {
			sets[i].spans[j].Start = sets[i].spans[j].Start.Add(offset)
		}
	}
}
