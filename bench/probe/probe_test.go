package probe

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sccpipe/internal/fleet"
	"sccpipe/internal/serve"
)

func at(ms int) time.Time { return time.Unix(1000, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTime(t *testing.T) {
	parent := Span{Start: at(0), End: at(100)}
	cases := []struct {
		name     string
		children []Span
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"one child", []Span{{Start: at(10), End: at(40)}}, 70 * time.Millisecond},
		{"disjoint children", []Span{{Start: at(60), End: at(80)}, {Start: at(10), End: at(40)}}, 50 * time.Millisecond},
		{"overlapping children count once", []Span{{Start: at(10), End: at(50)}, {Start: at(30), End: at(70)}}, 40 * time.Millisecond},
		{"nested child adds nothing", []Span{{Start: at(10), End: at(90)}, {Start: at(20), End: at(30)}}, 20 * time.Millisecond},
		{"child sticking out is clipped", []Span{{Start: at(-50), End: at(20)}, {Start: at(90), End: at(500)}}, 70 * time.Millisecond},
		{"child outside", []Span{{Start: at(200), End: at(300)}}, 100 * time.Millisecond},
		{"abutting children", []Span{{Start: at(0), End: at(50)}, {Start: at(50), End: at(100)}}, 0},
	}
	for _, c := range cases {
		if got := SelfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLinkAndCSV(t *testing.T) {
	var rec Recorder
	client := rec.Add(Span{Name: "client.job", Job: 7, Start: at(0), End: at(100)})
	gate := rec.Add(Span{Name: "fleet.handler", Job: 7, Start: at(2), End: at(98)})
	first := rec.Add(Span{Name: "serve.handler", Job: 7, Start: at(5), End: at(40)}) // failed attempt
	second := rec.Add(Span{Name: "serve.handler", Job: 7, Start: at(45), End: at(95)})
	frame := rec.Add(Span{Name: "serve.frame", Job: 7, Start: at(50), End: at(60), Arg: 0})
	gframe := rec.Add(Span{Name: "fleet.frame", Job: 7, Start: at(2), End: at(62), Arg: 0})
	other := rec.Add(Span{Name: "serve.handler", Job: 8, Start: at(10), End: at(20)})
	spans := rec.Spans()
	Link(spans)
	parent := map[int]int{}
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	want := map[int]int{client: 0, gate: client, first: gate, second: gate, frame: second, gframe: gate, other: 0}
	for id, p := range want {
		if parent[id] != p {
			t.Errorf("span %d has parent %d, want %d", id, parent[id], p)
		}
	}

	var buf bytes.Buffer
	if err := WriteCSV(&buf, spans, at(0)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(spans)+1 || lines[0] != "name,start_us,end_us,parent,job,id,arg" {
		t.Fatalf("CSV has %d lines, header %q", len(lines), lines[0])
	}
	if want := fmt.Sprintf("serve.frame,50000,60000,%d,7,%d,0", second, frame); lines[frame] != want {
		t.Errorf("CSV row %q, want %q", lines[frame], want)
	}
}

func TestParseAndSum(t *testing.T) {
	body := `# HELP jobs_total Jobs.
# TYPE jobs_total counter
jobs_total 12
# HELP rejected_total Rejected, by reason.
# TYPE rejected_total counter
# HELP busy_seconds Busy.
# TYPE busy_seconds counter
busy_seconds{backend="exec",stage="blur",worker="a:1"} 1.5
busy_seconds{backend="exec",stage="blur",worker="b:2"} 2.25
busy_seconds{backend="exec",stage="sepia",worker="a:1"} 4e-3
`
	s, err := Parse(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := s.Sum("jobs_total"); err != nil || v != 12 {
		t.Errorf("jobs_total = %v, %v", v, err)
	}
	if v, err := s.Sum("busy_seconds", "stage", "blur"); err != nil || v != 3.75 {
		t.Errorf("blur busy summed over workers = %v, %v", v, err)
	}
	if v, err := s.Sum("rejected_total", "reason", "queue_full"); err != nil || v != 0 {
		t.Errorf("a declared family without samples must read 0, got %v, %v", v, err)
	}
	if _, err := s.Sum("jobs_totl"); err == nil {
		t.Error("an undeclared family must be an error, not 0")
	}
	if by := s.By("busy_seconds", "worker"); by["a:1"] != 1.504 || by["b:2"] != 2.25 {
		t.Errorf("By(worker) = %v", by)
	}
	for _, bad := range []string{"jobs_total", "jobs_total twelve", `x{a="b" 1`, `x{a=b} 1`} {
		if _, err := Parse(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("Parse accepted %q", bad)
		}
	}
}

// TestScrapeLiveHandlers scrapes a real worker and a real gateway in front
// of it: the parser must cope with everything they emit, and the
// gateway's re-export must carry the worker's families with a worker
// label.
func TestScrapeLiveHandlers(t *testing.T) {
	worker := httptest.NewServer(serve.New(serve.Config{}))
	defer worker.Close()
	g, err := fleet.New(fleet.Config{Workers: []string{worker.URL}})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	defer g.Close()
	gateway := httptest.NewServer(g)
	defer gateway.Close()

	resp, err := http.Post(gateway.URL+"/jobs", "application/json", strings.NewReader(`{"frames":2,"width":64,"height":48}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ctx := context.Background()
	direct, err := Scrape(ctx, http.DefaultClient, worker.URL+"/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := direct.Sum("sccserve_frames_served_total"); err != nil || v != 2 {
		t.Errorf("worker frames served = %v, %v", v, err)
	}
	via, err := Scrape(ctx, http.DefaultClient, gateway.URL+"/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := via.Sum("sccserve_frames_served_total"); err != nil || v != 2 {
		t.Errorf("worker frames served through the gateway = %v, %v", v, err)
	}
	if by := via.By("sccserve_frames_served_total", "worker"); len(by) != 1 || by[""] != 0 {
		t.Errorf("re-exported series should carry one worker label, got %v", by)
	}
	if v, err := via.Sum("sccgate_frames_relayed_total"); err != nil || v != 2 {
		t.Errorf("gateway frames relayed = %v, %v", v, err)
	}
	if _, err := Scrape(ctx, http.DefaultClient, worker.URL+"/nope"); err == nil {
		t.Error("scraping a 404 must fail")
	}
}

// TestWrapKeepsStreaming: a wrapped handler must still be able to flush.
// The handler writes one part, flushes, and then refuses to return until
// the client has read that part — which only works if the flush went
// through the wrapper to the connection.
func TestWrapKeepsStreaming(t *testing.T) {
	var rec Recorder
	got := make(chan struct{})
	h := Wrap("serve", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			return
		}
		body, _ := io.ReadAll(r.Body)
		if !bytes.Contains(body, []byte(`"seed":99`)) {
			t.Errorf("the handler was handed body %q", body)
		}
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("the wrapped ResponseWriter is not an http.Flusher")
			return
		}
		fmt.Fprintln(w, "part 0")
		f.Flush()
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Error("the client never saw the first part while the handler was still running")
		}
		fmt.Fprintln(w, "summary")
		f.Flush()
	}), &rec)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"frames":1,"seed":99}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err != nil || line != "part 0\n" {
		t.Fatalf("first part: %q, %v", line, err)
	}
	close(got)
	if rest, _ := io.ReadAll(br); string(rest) != "summary\n" {
		t.Errorf("rest of the stream: %q", rest)
	}

	// The handler's spans are recorded once it has returned.
	deadline := time.Now().Add(2 * time.Second)
	var spans []Span
	for len(spans) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		spans = rec.Spans()
	}
	names := map[string]Span{}
	for _, s := range spans {
		names[s.Name] = s
		if s.Job != 99 {
			t.Errorf("span %s keyed by job %d, want the body's seed 99", s.Name, s.Job)
		}
	}
	if len(spans) != 3 || names["serve.handler"].Arg != 200 || names["serve.frame"].Arg != 0 || names["serve.head"].Dur() < 0 {
		t.Errorf("spans recorded: %+v", spans)
	}

	// Anything but a job submission passes through unrecorded.
	if resp, err := http.Get(srv.URL + "/healthz"); err == nil {
		resp.Body.Close()
	}
	if n := len(rec.Spans()); n != 3 {
		t.Errorf("a GET was recorded: %d spans", n)
	}
}
