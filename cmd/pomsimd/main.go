// Command pomsimd serves the simulator over HTTP: clients create
// sessions, stream POMTRC01 trace records at them, and read live
// statistics back — many tenants multiplexed onto one simulator fleet,
// the way the POM-TLB consolidates many VMs' translations into one
// structure.
//
// Usage:
//
//	pomsimd -addr :8080
//	pomsimd -addr :8080 -rate 500000 -burst 1000000 -idle-timeout 2m
//
// A quickstart conversation with curl:
//
//	id=$(curl -s -XPOST localhost:8080/sessions \
//	      -d '{"workload":"mcf","mode":"pom-tlb","cores":8}' | jq -r .id)
//	tracegen -workload mcf -n 2000000 -o mcf.trc
//	curl -s -XPOST --data-binary @mcf.trc localhost:8080/sessions/$id/records
//	curl -s -XPOST localhost:8080/sessions/$id/finish
//	curl -s localhost:8080/sessions/$id/metrics | jq .walk_elimination_rate
//
// SIGINT/SIGTERM drain gracefully: new sessions and ingest are refused
// while in-flight sessions run to completion (bounded by -drain-timeout).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pomsimd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("pomsimd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		maxSessions  = fs.Int("max-sessions", 64, "cap on concurrently live sessions")
		queueCap     = fs.Int("queue-cap", 65536, "per-session ingest backlog cap in records")
		rate         = fs.Float64("rate", 0, "per-tenant ingest rate in records/sec (0 = unlimited)")
		burst        = fs.Float64("burst", 0, "per-tenant burst allowance in records (0 = same as -rate)")
		enqueueWait  = fs.Duration("enqueue-wait", 100*time.Millisecond, "how long ingest blocks for queue space before shedding with 429")
		maxThrottle  = fs.Duration("max-throttle", 200*time.Millisecond, "longest rate-limit wait absorbed in-handler; longer waits are shed with 429")
		idleTimeout  = fs.Duration("idle-timeout", 5*time.Minute, "reap sessions with no ingest activity for this long (0 = never)")
		maxIngest    = fs.Int("max-ingest-records", 8<<20, "per-session upload cap in records (sessions keep their trace in memory; <0 = unlimited)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long a graceful shutdown waits for in-flight sessions")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *maxSessions <= 0:
		return fmt.Errorf("-max-sessions must be positive (got %d)", *maxSessions)
	case *queueCap < trace.Batch:
		return fmt.Errorf("-queue-cap must be at least one ingest batch of %d records, or no full batch is ever accepted (got %d)",
			trace.Batch, *queueCap)
	case *rate < 0:
		return fmt.Errorf("-rate must be non-negative (got %g)", *rate)
	case *burst < 0:
		return fmt.Errorf("-burst must be non-negative (got %g)", *burst)
	case *maxIngest == 0:
		return fmt.Errorf("-max-ingest-records must be positive, or negative for no cap (got 0)")
	case *rate > 0 && *burst == 0:
		*burst = *rate
	}
	switch {
	case *enqueueWait <= 0:
		return fmt.Errorf("-enqueue-wait must be positive (got %s)", *enqueueWait)
	case *maxThrottle <= 0:
		return fmt.Errorf("-max-throttle must be positive (got %s)", *maxThrottle)
	case *idleTimeout < 0:
		return fmt.Errorf("-idle-timeout must be non-negative (got %s)", *idleTimeout)
	case *drainTimeout <= 0:
		return fmt.Errorf("-drain-timeout must be positive (got %s)", *drainTimeout)
	}

	logger := log.New(logw, "pomsimd: ", log.LstdFlags)
	srv := server.New(server.Config{
		MaxSessions:      *maxSessions,
		QueueCap:         *queueCap,
		EnqueueWait:      *enqueueWait,
		RatePerSec:       *rate,
		Burst:            *burst,
		MaxThrottle:      *maxThrottle,
		IdleTimeout:      *idleTimeout,
		MaxIngestRecords: *maxIngest,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	logger.Printf("listening on %s (max-sessions %d, queue-cap %d, rate %g rec/s)",
		ln.Addr(), *maxSessions, *queueCap, *rate)

	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	logger.Printf("signal received; draining (deadline %s)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(dctx)
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		return drainErr
	}
	logger.Printf("drained cleanly")
	return nil
}
