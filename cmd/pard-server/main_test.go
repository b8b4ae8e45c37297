package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync"
	"testing"
	"time"

	"pard"
)

func TestUnknownAppRejected(t *testing.T) {
	if _, _, err := newServer("bogus", "pard", 2, 1, pard.AdmissionConfig{}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestServeDAGApp pushes one request through the da fan-out/merge pipeline
// on the live runtime.
func TestServeDAGApp(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	srv, spec, err := newServer("da", "pard", 2, 1, pard.AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if spec.IsChain() {
		t.Fatal("da spec is a chain; want a DAG")
	}
	srv.Start()
	defer srv.Stop()

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/infer", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /infer status %d", resp.StatusCode)
	}
}

// TestServeOneRequest starts the live server, pushes one request through
// the HTTP data plane and reads the stats endpoint.
func TestServeOneRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	srv, spec, err := newServer("tm", "pard", 2, 1, pard.AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if spec.N() != 3 {
		t.Fatalf("tm has %d modules, want 3", spec.N())
	}
	srv.Start()
	defer srv.Stop()

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/infer", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /infer status %d", resp.StatusCode)
	}
	stats, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	if stats.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats status %d", stats.StatusCode)
	}
}

// TestShutdownAnswersInFlight cancels a serving run while requests are in
// flight: every one of them must still get its 200 and the core's outcome
// (not the shutdown drain's), answered after the shutdown began, and run
// must return cleanly.
func TestShutdownAnswersInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-app", "lv", "-addr", "127.0.0.1:0"}, io.Discard, ready) }()
	url := "http://" + <-ready

	const n = 16
	type reply struct {
		status int
		out    pard.ServerResponse
		at     time.Time
		err    error
	}
	replies := make([]reply, n)
	var wg, wrote sync.WaitGroup
	wrote.Add(n)
	for i := range replies {
		wg.Add(1)
		go func(r *reply) {
			defer wg.Done()
			var once sync.Once
			ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
				WroteRequest: func(httptrace.WroteRequestInfo) { once.Do(wrote.Done) },
			})
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/infer", nil)
			if err != nil {
				once.Do(wrote.Done)
				r.err = err
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				once.Do(wrote.Done)
				r.err = err
				return
			}
			defer resp.Body.Close()
			r.status = resp.StatusCode
			r.err = json.NewDecoder(resp.Body).Decode(&r.out)
			r.at = time.Now()
		}(&replies[i])
	}
	// Cancel once every request is on the wire, plus a moment for the
	// server to accept the connections; lv's 500 ms SLO leaves them all
	// still in flight then.
	wrote.Wait()
	time.Sleep(10 * time.Millisecond)
	cancelled := time.Now()
	cancel()
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("run returned %v after shutdown", err)
	}
	late := 0
	for i, r := range replies {
		if r.err != nil || r.status != http.StatusOK || r.out.Outcome == "" {
			t.Fatalf("request %d across shutdown: status %d, outcome %q, err %v", i, r.status, r.out.Outcome, r.err)
		}
		if r.out.Outcome == "dropped" && r.out.DropModule == -1 {
			t.Fatalf("request %d was cut off by the shutdown instead of answered by the core", i)
		}
		if r.at.After(cancelled) {
			late++
		}
	}
	if late == 0 {
		t.Fatal("every request finished before the shutdown began; the test proves nothing")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting after shutdown")
	}
}
