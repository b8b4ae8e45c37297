// Command pard-worker runs sweep work units on behalf of a remote
// coordinator (pard-bench -workers/-listen).
//
// Usage:
//
//	pard-worker -listen :7070            # wait for a coordinator to dial in
//	pard-worker -join coord-host:7070    # dial a listening coordinator
//	pard-worker -listen :7070 -parallel 8 -cache-dir /shared/pard-cache
//
// The worker is stateless: base seed and trace duration arrive in the
// coordinator's handshake, every unit's seed derives from its cache key,
// and results stream back as gob frames — so a grid computed here is
// byte-identical to the same grid computed anywhere else. Every unit runs
// on the lane engine; peers older than dist.ProtoVersion 4, which could
// still ask for the removed classic engine, are refused at the handshake
// rather than allowed to run those keys on the lane engine. A -cache-dir on
// shared storage turns finished units into a cluster-wide artifact store:
// units already present (from an earlier run, another worker, or a
// pre-seeded volume) are served without re-execution and reported to the
// coordinator as cache hits, and a corrupt entry is quarantined and
// recomputed rather than failing the unit.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"pard/internal/dist"
	"pard/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pard-worker:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pard-worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "", "listen address for coordinator connections (e.g. :7070)")
	join := fs.String("join", "", "coordinator address to dial (host:port)")
	parallel := fs.Int("parallel", 0, "concurrent unit executions (0 = all CPU cores); advertised as capacity")
	cacheDir := fs.String("cache-dir", "", "persist finished units here (share it across the cluster for a common artifact store)")
	once := fs.Bool("once", false, "with -listen: serve a single coordinator connection, then exit")
	quiet := fs.Bool("quiet", false, "suppress per-unit logging")
	sim := fs.Bool("sim", false, "serve distributed-simulation sessions (one lane group per connection, see pard-sim -hosts) instead of sweep units; requires -listen")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if (*listen == "") == (*join == "") {
		return errors.New("exactly one of -listen or -join is required")
	}
	if *sim {
		if *join != "" {
			return errors.New("-sim sessions are dialed by the hub: use -listen")
		}
		if *cacheDir != "" {
			return errors.New("-cache-dir does not apply to -sim (simulation replicas are never cached mid-run)")
		}
	}
	if *cacheDir != "" {
		// Preflight: a bad cache dir should fail here with a clear message,
		// not surface to every coordinator as an opaque dropped handshake.
		if err := sweep.New(sweep.Config{CacheDir: *cacheDir}).DiskError(); err != nil {
			return err
		}
	}
	cfg := dist.WorkerConfig{Workers: *parallel, CacheDir: *cacheDir}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	if *join != "" {
		fmt.Fprintf(stderr, "pard-worker: joining coordinator at %s\n", *join)
		return dist.Join(*join, cfg)
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer l.Close()
	// The resolved address matters when -listen binds port 0 (tests, ad-hoc
	// clusters): print it where orchestration can read it.
	fmt.Fprintf(stderr, "pard-worker: listening on %s\n", l.Addr())
	if *sim {
		return serveSim(l, *once, cfg.Logf, stderr)
	}
	if *once {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		return dist.ServeConn(conn, cfg)
	}
	return dist.Serve(l, cfg)
}

// serveSim accepts simulation hubs and runs one lane group per connection.
// The replica's result is discarded here — it is bit-identical to the
// hub's, which is the one presented to the user.
func serveSim(l net.Listener, once bool, logf func(string, ...any), stderr io.Writer) error {
	opts := dist.SimOptions{Logf: logf}
	if once {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		_, err = dist.ServeSim(conn, opts)
		return err
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			if _, err := dist.ServeSim(conn, opts); err != nil {
				fmt.Fprintf(stderr, "pard-worker: sim session ended: %v\n", err)
			}
		}()
	}
}
