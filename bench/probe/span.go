// Package probe is the benchmark's measuring equipment, all of it outside
// the program under test: a span recorder with self-time arithmetic,
// http.Handler wrappers that turn a handler's writes into spans, a
// Prometheus text scraper with window deltas, and process counters
// (CPU, peak RSS, allocations, GC, goroutines).
package probe

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one job share
// Job (the job's unique seed). Parent is the ID of the span that caused
// this one, 0 for a root; Link fills it in.
type Span struct {
	ID     int
	Parent int
	Name   string
	Job    int64
	Start  time.Time
	End    time.Time
	// Arg is the frame index of a *.frame span and the HTTP status of a
	// *.handler or *.head span.
	Arg int
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// Recorder collects spans in memory; it is safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// Add records a span and returns its ID.
func (r *Recorder) Add(s Span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// depth orders span names from the outside in: a span's parent is the
// innermost span of the same job, at a smaller depth, that was open when
// it started.
func depth(name string) int {
	switch name {
	case "client.job":
		return 0
	case "fleet.handler":
		return 1
	case "serve.handler":
		return 2
	}
	return 3 // *.head, *.frame
}

// layerOf is the part of a span name before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// Link fills in Parent for every span: handler spans hang off the
// enclosing handler or client span of the same job, and a layer's head
// and frame spans hang off that layer's own handler (client frames off
// the client job).
func Link(spans []Span) {
	byJob := make(map[int64][]int)
	for i := range spans {
		byJob[spans[i].Job] = append(byJob[spans[i].Job], i)
	}
	for i := range spans {
		s := &spans[i]
		d := depth(s.Name)
		best := -1
		for _, j := range byJob[s.Job] {
			p := &spans[j]
			pd := depth(p.Name)
			if j == i || pd >= d || s.Start.Before(p.Start) || s.Start.After(p.End) {
				continue
			}
			if d == 3 && layerOf(p.Name) != layerOf(s.Name) {
				continue
			}
			if best < 0 || pd > depth(spans[best].Name) ||
				(pd == depth(spans[best].Name) && p.Start.After(spans[best].Start)) {
				best = j
			}
		}
		if best >= 0 {
			s.Parent = spans[best].ID
		}
	}
}

// SelfTime is a span's duration minus the part of its interval that the
// given child spans cover. Children may overlap each other and may stick
// out of the parent; only the covered part of the parent counts, once.
func SelfTime(parent Span, children []Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.a.After(end) {
			covered += v.b.Sub(v.a)
			end = v.b
		} else if v.b.After(end) {
			covered += v.b.Sub(end)
			end = v.b
		}
	}
	return parent.Dur() - covered
}

// WriteCSV writes spans as name,start_us,end_us,parent,job,id,arg with
// times in microseconds since epoch.
func WriteCSV(w io.Writer, spans []Span, epoch time.Time) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"name", "start_us", "end_us", "parent", "job", "id", "arg"}); err != nil {
		return err
	}
	for _, s := range spans {
		rec := []string{
			s.Name,
			strconv.FormatInt(s.Start.Sub(epoch).Microseconds(), 10),
			strconv.FormatInt(s.End.Sub(epoch).Microseconds(), 10),
			strconv.Itoa(s.Parent),
			strconv.FormatInt(s.Job, 10),
			strconv.Itoa(s.ID),
			strconv.Itoa(s.Arg),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
