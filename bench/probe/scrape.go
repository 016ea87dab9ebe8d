package probe

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Sample is one series of a Prometheus text exposition.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Series is a parsed /metrics body: its samples, and every family the
// body declared with a TYPE line (a labeled family declares itself before
// its first labeled sample exists).
type Series struct {
	Samples  []Sample
	Declared map[string]bool
}

// Scrape fetches and parses url (a /metrics endpoint).
func Scrape(ctx context.Context, hc *http.Client, url string) (Series, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return Series{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return Series{}, fmt.Errorf("probe: scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Series{}, fmt.Errorf("probe: scraping %s: status %d", url, resp.StatusCode)
	}
	return Parse(resp.Body)
}

// Parse reads the Prometheus text format (v0.0.4) as serve and fleet emit
// it: `name value` or `name{k="v",...} value`, label values without
// escapes. A malformed sample line is an error, not something to skip.
func Parse(r io.Reader) (Series, error) {
	out := Series{Declared: make(map[string]bool)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			out.Declared[f[2]] = true
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return Series{}, fmt.Errorf("probe: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return Series{}, fmt.Errorf("probe: malformed value in %q: %v", line, err)
		}
		s := Sample{Name: line[:sp], Value: v}
		if open := strings.IndexByte(s.Name, '{'); open >= 0 {
			if !strings.HasSuffix(s.Name, "}") {
				return Series{}, fmt.Errorf("probe: malformed labels in %q", line)
			}
			s.Labels = make(map[string]string)
			for _, kv := range strings.Split(s.Name[open+1:len(s.Name)-1], ",") {
				k, val, ok := strings.Cut(kv, "=")
				if !ok || len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
					return Series{}, fmt.Errorf("probe: malformed label %q in %q", kv, line)
				}
				s.Labels[k] = val[1 : len(val)-1]
			}
			s.Name = s.Name[:open]
		}
		out.Samples = append(out.Samples, s)
		out.Declared[s.Name] = true
	}
	return out, sc.Err()
}

// Sum adds up every series of the named family whose labels include all
// of match (given as alternating key, value); a worker label the gateway
// injected is thereby summed over. A family the exposition never declared
// is an error — a renamed or dropped series must fail the run, not read as
// zero; a declared family with no matching labeled sample yet is zero.
func (s Series) Sum(name string, match ...string) (float64, error) {
	if !s.Declared[name] {
		return 0, fmt.Errorf("probe: no family %s in the exposition", name)
	}
	total := 0.0
	for _, sm := range s.Samples {
		if sm.Name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(match); i += 2 {
			if sm.Labels[match[i]] != match[i+1] {
				ok = false
				break
			}
		}
		if ok {
			total += sm.Value
		}
	}
	return total, nil
}

// By returns the named family's values keyed by one label's value.
func (s Series) By(name, label string) map[string]float64 {
	out := make(map[string]float64)
	for _, sm := range s.Samples {
		if sm.Name == name {
			out[sm.Labels[label]] += sm.Value
		}
	}
	return out
}
