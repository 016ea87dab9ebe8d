// Package client is the benchmark's verifying client: it submits one job,
// reads the multipart frame stream (or the simulate JSON) off the wire,
// timestamps every part, and checks every byte it can check without an
// oracle — dense frame indices, the per-part digest (over the PNG bytes of
// a raw part, over the pixels its own delta chain reconstructs for a delta
// part), the geometry each part claims, and the summary's frame count.
// Pixel-exact comparison against core.ExecReference is the harness's job:
// on request the client hands back a SHA-256 of every frame's decoded
// pixels for it.
package client

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sccpipe/bench"
	"sccpipe/internal/codec"
	"sccpipe/internal/frame"
	"sccpipe/internal/serve"
)

// ErrRejected marks a submission the service refused at admission (429 or
// 503): a failed operation, but not a verification failure.
var ErrRejected = errors.New("client: job rejected")

// Result is what one job looked like from the client.
type Result struct {
	Job   bench.Job
	Start time.Time
	// FrameAt holds, per verified frame, the offset from Start at which the
	// part had been fully read and verified; Done is the offset at which
	// the summary part (or the simulate JSON) had been read.
	FrameAt []time.Duration
	Done    time.Duration
	// Status is the HTTP status (0 if the request never got one).
	Status int
	// WireBytes sums frame payload bytes (part headers excluded); for a
	// simulate job, the response body.
	WireBytes int64
	// Verify is the time spent checking parts (digests, delta decode,
	// geometry), included in FrameAt and Done.
	Verify time.Duration
	// Schemes counts delta parts by their scheme byte (payload byte 0).
	Schemes [4]int
	// PixelSums holds the SHA-256 of each frame's decoded RGBA pixels when
	// the caller asked for them.
	PixelSums [][sha256.Size]byte
	// SimSeconds is the simulated walkthrough time of a simulate job, and
	// SimBody the exact JSON it answered with.
	SimSeconds float64
	SimBody    string
	// Worker is the serving worker the gateway named in the summary.
	Worker string
	// Err is nil for a job that completed and verified.
	Err error
}

// Rejected reports whether the job was refused at admission.
func (r *Result) Rejected() bool { return errors.Is(r.Err, ErrRejected) }

// Do submits the job to baseURL and verifies the response. keepPixels
// asks for PixelSums (raw parts are then PNG-decoded, which the
// plain path avoids).
func Do(ctx context.Context, hc *http.Client, baseURL string, job bench.Job, keepPixels bool) *Result {
	res := &Result{Job: job, Start: time.Now()}
	body, err := json.Marshal(job.Spec.Job)
	if err != nil {
		res.Err = err
		return res
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/jobs", bytes.NewReader(body))
	if err != nil {
		res.Err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	if job.Spec.Delta {
		req.Header.Set(serve.FrameEncodingHeader, serve.FrameEncodingDelta)
	}
	resp, err := hc.Do(req)
	if err != nil {
		res.Err = err
		return res
	}
	defer resp.Body.Close()
	res.Status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		res.Done = time.Since(res.Start)
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			res.Err = fmt.Errorf("%w: status %d: %s", ErrRejected, resp.StatusCode, bytes.TrimSpace(msg))
		} else {
			res.Err = fmt.Errorf("client: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		}
		return res
	}
	if job.Spec.Job.Mode == serve.ModeSimulate {
		res.readSim(resp.Body)
		return res
	}
	mediatype, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil || !strings.HasPrefix(mediatype, "multipart/") || params["boundary"] == "" {
		res.Err = fmt.Errorf("client: unexpected content type %q", resp.Header.Get("Content-Type"))
		return res
	}
	res.Err = res.ReadStream(resp.Body, params["boundary"], keepPixels)
	return res
}

// readSim reads and parses a simulate job's JSON reply. The "first frame"
// of a simulate job is the arrival of the reply's first body byte.
func (r *Result) readSim(body io.Reader) {
	var first [1]byte
	n, err := io.ReadFull(body, first[:])
	r.FrameAt = append(r.FrameAt, time.Since(r.Start))
	rest, rerr := io.ReadAll(io.LimitReader(body, 1<<20))
	if err == nil {
		err = rerr
	}
	raw := append(first[:n], rest...)
	r.WireBytes = int64(len(raw))
	if err != nil {
		r.Err = fmt.Errorf("client: reading simulate reply: %w", err)
		return
	}
	t0 := time.Now()
	var reply struct {
		Seconds *float64 `json:"seconds"`
	}
	if err := json.Unmarshal(raw, &reply); err != nil || reply.Seconds == nil {
		r.Err = fmt.Errorf("client: bad simulate reply %q: %v", raw, err)
		return
	}
	r.SimSeconds = *reply.Seconds
	r.SimBody = string(bytes.TrimSpace(raw))
	r.Verify = time.Since(t0)
	r.Done = time.Since(r.Start)
}

// ReadStream consumes and verifies a multipart frame stream for r.Job.
// Any structural or content mismatch — truncated stream, out-of-order or
// duplicate index, digest mismatch, a part whose claimed or decoded
// geometry disagrees with the spec, a summary reporting the wrong frame
// count or an error — is returned as an error; parts read before it stay
// recorded.
func (r *Result) ReadStream(body io.Reader, boundary string, keepPixels bool) error {
	spec := r.Job.Spec.Job
	mr := multipart.NewReader(body, boundary)
	var chain []byte // this stream's decoded delta chain state
	for {
		part, err := mr.NextPart()
		if err != nil {
			// Includes io.EOF: a stream must end with a summary part.
			return fmt.Errorf("client: stream truncated after %d frames: %w", len(r.FrameAt), err)
		}
		switch ct := part.Header.Get("Content-Type"); ct {
		case "image/png", serve.DeltaContentType:
			if (ct == serve.DeltaContentType) != r.Job.Spec.Delta {
				return fmt.Errorf("client: frame %d is %s, which is not the encoding asked for", len(r.FrameAt), ct)
			}
			idx, err := strconv.Atoi(part.Header.Get("X-Frame-Index"))
			if err != nil {
				return fmt.Errorf("client: frame part without an index: %v", err)
			}
			if want := len(r.FrameAt); idx != want {
				return fmt.Errorf("client: frame index %d, want %d (indices must be dense from 0)", idx, want)
			}
			if idx >= spec.Frames {
				return fmt.Errorf("client: frame index %d beyond the %d frames asked for", idx, spec.Frames)
			}
			payload, err := io.ReadAll(part)
			if err != nil {
				return fmt.Errorf("client: frame %d truncated: %w", idx, err)
			}
			t0 := time.Now()
			digest := part.Header.Get("X-Frame-Digest")
			if digest == "" {
				return fmt.Errorf("client: frame %d carries no digest", idx)
			}
			var pix []byte
			if ct == serve.DeltaContentType {
				pw, _ := strconv.Atoi(part.Header.Get(serve.FrameWidthHeader))
				ph, _ := strconv.Atoi(part.Header.Get(serve.FrameHeightHeader))
				if pw != spec.Width || ph != spec.Height {
					return fmt.Errorf("client: frame %d claims %dx%d, spec is %dx%d", idx, pw, ph, spec.Width, spec.Height)
				}
				if chain == nil {
					chain = make([]byte, spec.Width*spec.Height*4)
				}
				pix, err = codec.FrameDeltaDecode(chain, payload, pw, ph)
				if err != nil {
					return fmt.Errorf("client: frame %d delta undecodable: %w", idx, err)
				}
				if got := serve.FrameDigest(pix); got != digest {
					return fmt.Errorf("client: frame %d corrupt: decoded digest %s, header says %s", idx, got, digest)
				}
				chain = pix
				if s := int(payload[0]); s < len(r.Schemes) {
					r.Schemes[s]++
				}
			} else {
				if got := serve.FrameDigest(payload); got != digest {
					return fmt.Errorf("client: frame %d corrupt: digest %s, header says %s", idx, got, digest)
				}
				cfg, err := png.DecodeConfig(bytes.NewReader(payload))
				if err != nil {
					return fmt.Errorf("client: frame %d is not a PNG: %w", idx, err)
				}
				if cfg.Width != spec.Width || cfg.Height != spec.Height {
					return fmt.Errorf("client: frame %d is %dx%d, spec is %dx%d", idx, cfg.Width, cfg.Height, spec.Width, spec.Height)
				}
				if keepPixels {
					img, err := frame.ReadPNG(bytes.NewReader(payload))
					if err != nil {
						return fmt.Errorf("client: frame %d PNG undecodable: %w", idx, err)
					}
					pix = img.Pix
				}
			}
			if keepPixels {
				r.PixelSums = append(r.PixelSums, sha256.Sum256(pix))
			}
			r.WireBytes += int64(len(payload))
			r.Verify += time.Since(t0)
			r.FrameAt = append(r.FrameAt, time.Since(r.Start))
		case "application/json":
			raw, err := io.ReadAll(io.LimitReader(part, 1<<20))
			if err != nil {
				return fmt.Errorf("client: summary truncated: %w", err)
			}
			var sum struct {
				Frames *int   `json:"frames"`
				Error  string `json:"error"`
				Worker string `json:"worker"`
			}
			if err := json.Unmarshal(raw, &sum); err != nil {
				return fmt.Errorf("client: bad summary %q: %v", raw, err)
			}
			if sum.Error != "" {
				return fmt.Errorf("client: job failed mid-stream: %s", sum.Error)
			}
			if sum.Frames == nil || *sum.Frames != spec.Frames || len(r.FrameAt) != spec.Frames {
				return fmt.Errorf("client: summary %q after %d frame parts, spec asked for %d frames",
					bytes.TrimSpace(raw), len(r.FrameAt), spec.Frames)
			}
			r.Worker = sum.Worker
			r.Done = time.Since(r.Start)
			return nil
		default:
			return fmt.Errorf("client: unexpected part type %q", ct)
		}
	}
}
