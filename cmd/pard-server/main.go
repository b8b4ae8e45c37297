// Command pard-server hosts a pipeline — chain or DAG — behind HTTP with
// live PARD scheduling. Model execution is simulated by letting batch
// events fall due after the profiled durations; everything else (queues,
// batching, dropping, priority, state sync) is the real scheduler, the same
// shared core the simulator runs. SIGINT or SIGTERM shuts it down
// gracefully: requests in flight are answered before it exits.
//
// Usage:
//
//	pard-server -app lv -policy pard -addr :8080
//	pard-server -app da            # the fan-out/merge DAG pipeline
//	curl -X POST localhost:8080/infer
//	curl localhost:8080/stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"pard"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fatal(err)
	}
}

// run serves until ctx is done (SIGINT or SIGTERM in the binary), then
// shuts down gracefully: the listener closes, requests already in flight
// are answered by the still-running core, and only then does Server.Stop
// resolve whatever is left. ready, when set, receives the bound address.
func run(ctx context.Context, args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("pard-server", flag.ContinueOnError)
	app := fs.String("app", "tm", "pipeline: tm, lv, gm, or the DAG da")
	policyName := fs.String("policy", "pard", "drop policy")
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 2, "workers per module")
	seed := fs.Int64("seed", 1, "random seed")
	admission := fs.Bool("admission", false, "enable estimator-driven admission control (429 + Retry-After at predicted SLO misses)")
	admInFlight := fs.Int("admission-inflight", 0, "admission gate in-flight bound (0 = unbounded; needs -admission)")
	admSLOFactor := fs.Float64("admission-slo-factor", 1.0, "admission threshold as a fraction of the SLO (needs -admission)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv, spec, err := newServer(*app, *policyName, *workers, *seed, pard.AdmissionConfig{
		Enabled:     *admission,
		MaxInFlight: *admInFlight,
		SLOFactor:   *admSLOFactor,
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv.Start()
	defer srv.Stop()
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(l) }()

	gate := "off"
	if *admission {
		gate = "on"
	}
	fmt.Fprintf(stdout, "pard-server: serving %s (%d modules, SLO %v) with policy %s on %s (admission %s)\n",
		*app, spec.N(), spec.SLO, *policyName, l.Addr(), gate)
	if ready != nil {
		ready <- l.Addr().String()
	}

	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	// Every /infer handler answers within its 10×SLO stall bound, so this
	// grace only expires if a client stops reading.
	sctx, cancel := context.WithTimeout(context.Background(), 10*spec.SLO+5*time.Second)
	defer cancel()
	err = hs.Shutdown(sctx)
	<-served
	fmt.Fprintln(stdout, "pard-server: shut down")
	return err
}

// newServer builds (but does not start) the live server for an app name.
func newServer(app, policyName string, workers int, seed int64, adm pard.AdmissionConfig) (*pard.Server, *pard.Pipeline, error) {
	spec, ok := pard.Apps()[app]
	if !ok {
		return nil, nil, fmt.Errorf("unknown app %q (have %s)", app, strings.Join(appNames(), ", "))
	}

	ws := make([]int, spec.N())
	for i := range ws {
		ws[i] = workers
	}
	srv, err := pard.NewServer(pard.ServerConfig{
		Spec:       spec,
		PolicyName: policyName,
		Workers:    ws,
		Seed:       seed,
		Admission:  adm,
	})
	if err != nil {
		return nil, nil, err
	}
	return srv, spec, nil
}

// appNames lists the hostable pipelines in sorted order.
func appNames() []string {
	var names []string
	for name := range pard.Apps() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pard-server:", err)
	os.Exit(1)
}
