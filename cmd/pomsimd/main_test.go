package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := map[string][]string{
		"unknown flag":            {"-bogus"},
		"max-sessions":            {"-max-sessions", "0"},
		"queue-cap":               {"-queue-cap", "0"},
		"queue-cap below a batch": {"-queue-cap", "255"},
		"rate":                    {"-rate", "-1"},
		"burst":                   {"-burst", "-1"},
		"max-ingest-records":      {"-max-ingest-records", "0"},
		"enqueue-wait":            {"-enqueue-wait", "0s"},
		"max-throttle":            {"-max-throttle", "-1ms"},
		"idle-timeout":            {"-idle-timeout", "-1s"},
		"drain-timeout":           {"-drain-timeout", "0s"},
		"unparsable duration":     {"-drain-timeout", "soon"},
	}
	// Under a cancelled context a configuration run accepts drains at
	// once and returns nil instead of serving.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, args := range cases {
		if err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard); err == nil {
			t.Errorf("%s: args %v accepted, want error", name, args)
		}
	}
	if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-queue-cap", "256"}, io.Discard); err != nil {
		t.Errorf("-queue-cap 256, one full batch: %v", err)
	}
}

// TestRunLifecycle starts the daemon on an ephemeral port, checks that it
// logs its address and serves, that a second daemon on the same address
// fails, and that cancelling the context drains it to a clean exit.
func TestRunLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logr, logw := io.Pipe()
	defer logw.Close()
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(logr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				addrc <- addr
			}
		}
	}()
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, logw) }()

	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("run returned before listening: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz: status %d, want 200", resp.StatusCode)
	}

	if err := run(context.Background(), []string{"-addr", addr}, io.Discard); err == nil {
		t.Errorf("a second daemon on %s started", addr)
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("drain after cancel: %v", err)
	}
}
