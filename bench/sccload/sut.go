package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"sccpipe/bench"
	"sccpipe/bench/probe"
	"sccpipe/internal/fleet"
	"sccpipe/internal/serve"
)

// Loopback ports of the system under test. They are fixed because the
// gateway's rendezvous routing hashes worker names (host:port): with
// random ports the split of specs over workers — and with it every
// fleet metric — would change from run to run for no reason a change to
// the code could explain.
const (
	portWorker0 = 47344
	portGateway = 47440
)

// sut is the system under test stood up inside this process with the same
// constructors the binaries use: one serve.Server behind a loopback TCP
// listener, or two of them behind a fleet.Gateway.
type sut struct {
	// URL is where clients submit jobs.
	URL string

	gateway *fleet.Gateway
	servers []*http.Server
	serving sync.WaitGroup
}

// MetricsURL is the /metrics endpoint that covers the whole system (a
// gateway re-exports its workers' series).
func (s *sut) MetricsURL() string { return s.URL + "/metrics" }

// listen binds a loopback listener, on the fixed port when asked. A fixed
// port still held by a process that is just exiting is retried briefly.
func listen(port int, fixed bool) (net.Listener, error) {
	if !fixed {
		return net.Listen("tcp", "127.0.0.1:0")
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err == nil || time.Now().After(deadline) {
			return ln, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// serveOn runs h on ln until Close.
func (s *sut) serveOn(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h}
	s.servers = append(s.servers, hs)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed from Close
	}()
}

// standUp builds the workload's system. With rec non-nil every job
// handler is wrapped so its calls and writes become spans (the traced
// run); with rec nil the handlers are mounted exactly as the binaries
// mount them.
func standUp(w bench.Workload, rec *probe.Recorder, fixedPorts bool) (*sut, error) {
	s := &sut{}
	wrap := func(layer string, h http.Handler) http.Handler {
		if rec == nil {
			return h
		}
		return probe.Wrap(layer, h, rec)
	}
	nWorkers := 1
	if w.Fleet {
		nWorkers = 2
	}
	var workerURLs []string
	for i := 0; i < nWorkers; i++ {
		ln, err := listen(portWorker0+i, fixedPorts)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.serveOn(ln, wrap("serve", serve.New(w.Worker)))
		workerURLs = append(workerURLs, "http://"+ln.Addr().String())
	}
	s.URL = workerURLs[0]
	if w.Fleet {
		g, err := fleet.New(fleet.Config{Workers: workerURLs})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.gateway = g
		ln, err := listen(portGateway, fixedPorts)
		if err != nil {
			s.Close()
			return nil, err
		}
		g.Start()
		s.serveOn(ln, wrap("fleet", g))
		s.URL = "http://" + ln.Addr().String()
	}
	if err := s.waitHealthy(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// waitHealthy polls the front door's /healthz until it answers 200 (for a
// gateway: at least one worker probed healthy).
func (s *sut) waitHealthy() error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(s.URL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("system under test never became healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Close stops the gateway's health loops and every listener, and waits
// for the serving goroutines to end.
func (s *sut) Close() {
	if s.gateway != nil {
		s.gateway.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, hs := range s.servers {
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
	}
	s.serving.Wait()
}
