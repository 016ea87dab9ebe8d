package client

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"strconv"
	"strings"
	"testing"

	"sccpipe/bench"
	"sccpipe/internal/codec"
	"sccpipe/internal/frame"
	"sccpipe/internal/serve"
)

// testFrames builds n distinct w×h frames.
func testFrames(n, w, h int) []*frame.Image {
	frames := make([]*frame.Image, n)
	for f := range frames {
		img := frame.New(w, h)
		for i := range img.Pix {
			img.Pix[i] = byte(i*7 + f*31)
		}
		frames[f] = img
	}
	return frames
}

// part is one multipart part a test stream carries.
type part struct {
	header  textproto.MIMEHeader
	payload []byte
}

func rawPart(idx int, img *frame.Image) part {
	var buf bytes.Buffer
	if err := img.WritePNG(&buf); err != nil {
		panic(err)
	}
	return part{textproto.MIMEHeader{
		"Content-Type":   {"image/png"},
		"X-Frame-Index":  {strconv.Itoa(idx)},
		"X-Frame-Digest": {serve.FrameDigest(buf.Bytes())},
	}, buf.Bytes()}
}

func deltaPart(idx int, prev []byte, img *frame.Image) part {
	payload, err := codec.FrameDeltaEncode(prev, img.Pix, img.W, img.H)
	if err != nil {
		panic(err)
	}
	return part{textproto.MIMEHeader{
		"Content-Type":          {serve.DeltaContentType},
		"X-Frame-Index":         {strconv.Itoa(idx)},
		serve.FrameWidthHeader:  {strconv.Itoa(img.W)},
		serve.FrameHeightHeader: {strconv.Itoa(img.H)},
		"X-Frame-Digest":        {serve.FrameDigest(img.Pix)},
	}, payload}
}

func summaryPart(frames int) part {
	return part{textproto.MIMEHeader{"Content-Type": {"application/json"}},
		[]byte(fmt.Sprintf(`{"frames":%d,"elapsed_ms":3}`+"\n", frames))}
}

// goodStream is what the service sends for the job: one part per frame,
// then the summary.
func goodStream(frames []*frame.Image, delta bool) []part {
	var parts []part
	prev := make([]byte, len(frames[0].Pix))
	for i, img := range frames {
		if delta {
			parts = append(parts, deltaPart(i, prev, img))
			prev = img.Pix
		} else {
			parts = append(parts, rawPart(i, img))
		}
	}
	return append(parts, summaryPart(len(frames)))
}

// encode writes parts as a multipart body.
func encode(parts []part) (body []byte, boundary string) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range parts {
		w, err := mw.CreatePart(p.header)
		if err != nil {
			panic(err)
		}
		w.Write(p.payload)
	}
	mw.Close()
	return buf.Bytes(), mw.Boundary()
}

func testJob(frames, w, h int, delta bool) bench.Job {
	return bench.Job{Spec: bench.Spec{Delta: delta, Job: serve.JobSpec{
		Mode: serve.ModeRender, Frames: frames, Width: w, Height: h, Pipelines: 4, Seed: 42,
	}}}
}

func read(job bench.Job, parts []part, keep bool) (*Result, error) {
	body, boundary := encode(parts)
	r := &Result{Job: job}
	return r, r.ReadStream(bytes.NewReader(body), boundary, keep)
}

func TestReadStreamAcceptsWhatTheServiceSends(t *testing.T) {
	frames := testFrames(5, 24, 16)
	for _, delta := range []bool{false, true} {
		r, err := read(testJob(5, 24, 16, delta), goodStream(frames, delta), true)
		if err != nil {
			t.Fatalf("delta=%t: %v", delta, err)
		}
		if len(r.FrameAt) != 5 || r.Done == 0 || r.WireBytes == 0 {
			t.Errorf("delta=%t: frames %d, done %v, bytes %d", delta, len(r.FrameAt), r.Done, r.WireBytes)
		}
		for f, sum := range r.PixelSums {
			if sum != sha256.Sum256(frames[f].Pix) {
				t.Errorf("delta=%t: frame %d decoded to the wrong pixels", delta, f)
			}
		}
		if delta && r.Schemes[1]+r.Schemes[2]+r.Schemes[3] != 5 {
			t.Errorf("scheme histogram %v does not count 5 delta parts", r.Schemes)
		}
	}
}

func TestReadStreamRejectsDamage(t *testing.T) {
	frames := testFrames(5, 24, 16)
	other := testFrames(5, 32, 16) // same frames, lying about their width
	flip := func(p part) part {
		q := part{p.header, append([]byte(nil), p.payload...)}
		q.payload[len(q.payload)/2] ^= 0x40
		return q
	}
	reindex := func(p part, idx int) part {
		h := textproto.MIMEHeader{}
		for k, v := range p.header {
			h[k] = v
		}
		h.Set("X-Frame-Index", strconv.Itoa(idx))
		return part{h, p.payload}
	}
	for _, delta := range []bool{false, true} {
		good := goodStream(frames, delta)
		job := testJob(5, 24, 16, delta)
		cases := []struct {
			name  string
			parts []part
			want  string
		}{
			{"no summary", good[:5], "truncated"},
			{"frame missing", append(append([]part{}, good[:3]...), good[4:]...), "want 3"},
			{"reordered", []part{good[0], good[2], good[1], good[3], good[4], good[5]}, "want 1"},
			{"duplicate", []part{good[0], good[1], good[1], good[2], good[3], good[4], good[5]}, "want 2"},
			{"extra frame", []part{good[0], good[1], good[2], good[3], good[4], reindex(good[4], 5), good[5]}, "beyond"},
			{"payload corrupted", []part{good[0], flip(good[1]), good[2], good[3], good[4], good[5]}, ""},
			{"summary miscounts", append(append([]part{}, good[:5]...), summaryPart(4)), "spec asked for 5"},
			{"summary reports error", append(append([]part{}, good[:2]...),
				part{good[5].header, []byte(`{"error":"worker died"}`)}), "worker died"},
			{"wrong encoding", goodStream(frames, !delta), "not the encoding"},
			{"geometry lies", goodStream(other, delta), "spec is 24x16"},
		}
		for _, c := range cases {
			r, err := read(job, c.parts, false)
			if err == nil {
				t.Errorf("delta=%t %s: accepted", delta, c.name)
				continue
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("delta=%t %s: error %q does not mention %q", delta, c.name, err, c.want)
			}
			if r.Done != 0 {
				t.Errorf("delta=%t %s: a failed stream must not be stamped done", delta, c.name)
			}
		}
	}
}

func TestReadStreamRejectsTornBody(t *testing.T) {
	frames := testFrames(5, 24, 16)
	for _, delta := range []bool{false, true} {
		body, boundary := encode(goodStream(frames, delta))
		for _, cut := range []int{len(body) / 3, len(body) / 2, len(body) - 8} {
			r := &Result{Job: testJob(5, 24, 16, delta)}
			if err := r.ReadStream(bytes.NewReader(body[:cut]), boundary, false); err == nil {
				t.Errorf("delta=%t: stream cut at byte %d of %d accepted", delta, cut, len(body))
			}
		}
	}
}

// TestDoAgainstLiveServer drives the whole client against a real worker:
// a render stream, a delta stream and a simulate reply verify, and an
// admission refusal is reported as a rejection.
func TestDoAgainstLiveServer(t *testing.T) {
	srv := httptest.NewServer(serve.New(serve.Config{Workers: 1}))
	defer srv.Close()
	ctx := context.Background()
	hc := srv.Client()

	for _, delta := range []bool{false, true} {
		job := testJob(3, 64, 48, delta)
		job.Spec.Job.Camera = serve.CameraDwell
		r := Do(ctx, hc, srv.URL, job, true)
		if r.Err != nil {
			t.Fatalf("delta=%t: %v", delta, r.Err)
		}
		if len(r.FrameAt) != 3 || len(r.PixelSums) != 3 || r.Status != http.StatusOK {
			t.Errorf("delta=%t: frames %d, sums %d, status %d", delta, len(r.FrameAt), len(r.PixelSums), r.Status)
		}
	}

	sim := bench.Job{Spec: bench.Spec{Job: serve.JobSpec{Mode: serve.ModeSimulate, Frames: 4, Width: 64, Height: 64, Pipelines: 2}}}
	r := Do(ctx, hc, srv.URL, sim, false)
	if r.Err != nil || r.SimSeconds <= 0 || len(r.FrameAt) != 1 || r.Done < r.FrameAt[0] {
		t.Errorf("simulate: err %v, seconds %v, first byte %v, done %v", r.Err, r.SimSeconds, r.FrameAt, r.Done)
	}

	bad := testJob(3, 64, 48, false)
	bad.Spec.Job.Pipelines = 99
	if r := Do(ctx, hc, srv.URL, bad, false); r.Err == nil || r.Rejected() || r.Status != http.StatusBadRequest {
		t.Errorf("invalid spec: err %v, status %d", r.Err, r.Status)
	}

	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "queue full", http.StatusTooManyRequests)
	}))
	defer busy.Close()
	if r := Do(ctx, busy.Client(), busy.URL, testJob(3, 64, 48, false), false); !r.Rejected() {
		t.Errorf("a 429 must read as a rejection, got %v", r.Err)
	}
}
