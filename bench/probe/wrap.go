package probe

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"time"
)

// Wrap returns a handler that records spans around h's handling of job
// submissions (POST /jobs); every other request passes through untouched.
// Per job it records layer+".handler" (the whole call, Arg = status),
// layer+".head" (call start to the first byte written, Arg = status) and one
// layer+".frame" per flush but the last (previous flush — or call start —
// to this flush, Arg = frame index): both serve and fleet flush exactly
// once per frame part and once more for the summary. Spans are keyed by
// the job's seed, read from the request body, which is handed on to h
// unchanged.
func Wrap(layer string, h http.Handler, rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/jobs" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		body, _ := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		r.Body = io.NopCloser(bytes.NewReader(body))
		var spec struct {
			Seed int64 `json:"seed"`
		}
		_ = json.Unmarshal(body, &spec) // a body h will reject simply gets job 0
		tw := &tracedWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(tw, r)
		end := time.Now()
		rec.Add(Span{Name: layer + ".handler", Job: spec.Seed, Start: start, End: end, Arg: tw.status})
		if !tw.firstWrite.IsZero() {
			rec.Add(Span{Name: layer + ".head", Job: spec.Seed, Start: start, End: tw.firstWrite, Arg: tw.status})
		}
		prev := start
		for i, at := range tw.flushes {
			if i == len(tw.flushes)-1 {
				break // the summary's flush
			}
			rec.Add(Span{Name: layer + ".frame", Job: spec.Seed, Start: prev, End: at, Arg: i})
			prev = at
		}
	})
}

// tracedWriter timestamps a handler's writes and flushes. It is used from
// the handler's goroutine only, like the ResponseWriter it wraps.
type tracedWriter struct {
	http.ResponseWriter
	status     int
	firstWrite time.Time
	flushes    []time.Time
}

func (t *tracedWriter) WriteHeader(code int) {
	t.status = code
	t.ResponseWriter.WriteHeader(code)
}

func (t *tracedWriter) Write(p []byte) (int, error) {
	if t.firstWrite.IsZero() {
		t.firstWrite = time.Now()
	}
	return t.ResponseWriter.Write(p)
}

// Flush keeps the wrapped writer an http.Flusher: serve and fleet stream
// frames by flushing after each part, and would silently stop streaming
// if the wrapper hid the interface.
func (t *tracedWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	t.flushes = append(t.flushes, time.Now())
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (t *tracedWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }
