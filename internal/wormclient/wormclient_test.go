package wormclient

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// isStatus reports whether err is a *StatusError with the given code.
func isStatus(err error, code int) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == code
}

func testClient(base string) *Client {
	return New(base,
		WithRetry(4, time.Millisecond, 8*time.Millisecond),
		WithJitterSeed(1))
}

// TestRetriesServerErrors: 5xx responses are retried until the server
// recovers, and the eventual success is returned.
func TestRetriesServerErrors(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ok":true}`)) //nolint:errcheck
	}))
	defer srv.Close()

	var out map[string]bool
	if err := testClient(srv.URL).GetJSON(context.Background(), "/x", &out); err != nil {
		t.Fatal(err)
	}
	if !out["ok"] || calls.Load() != 3 {
		t.Fatalf("ok=%v after %d calls", out["ok"], calls.Load())
	}
}

// TestNoRetryOnClientError: a 4xx is final — exactly one request, and
// the error is the typed StatusError.
func TestNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad spec", http.StatusBadRequest)
	}))
	defer srv.Close()

	_, err := testClient(srv.URL).Get(context.Background(), "/x")
	if !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("want StatusError 400, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("4xx was retried: %d calls", calls.Load())
	}
}

// TestNoRetryOn429: admission-cap rejections surface immediately so the
// caller's scheduler (not this library) decides when to come back.
func TestNoRetryOn429(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "full", http.StatusTooManyRequests)
	}))
	defer srv.Close()

	_, err := testClient(srv.URL).Do(context.Background(), http.MethodPost, "/jobs", []byte(`{}`))
	if !isStatus(err, http.StatusTooManyRequests) {
		t.Fatalf("want StatusError 429, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("429 was retried: %d calls", calls.Load())
	}
}

// TestRetriesConnectionRefused: a dead address is retried (the daemon
// may be mid-restart); when it never comes back, the transport error
// surfaces after the attempt budget.
func TestRetriesConnectionRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here now

	start := time.Now()
	_, err = testClient("http://"+addr).Get(context.Background(), "/x")
	if err != nil {
		if isStatus(err, 0) {
			t.Fatalf("transport failure produced a StatusError: %v", err)
		}
	} else {
		t.Fatal("connect to a closed port succeeded")
	}
	// 4 attempts = 3 backoff sleeps; with a 1ms base they must have
	// actually happened (jitter keeps each ≥ d/2).
	if time.Since(start) < 1500*time.Microsecond {
		t.Fatal("attempts were not spaced by backoff")
	}
}

// TestRecoversAcrossRestart: the refused-then-alive sequence the chaos
// harness depends on — first attempts hit a dead port, a later one
// succeeds once the "daemon" is back.
func TestRecoversAcrossRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(5 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the client error path still passes
		}
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("back")) //nolint:errcheck
		})}
		go srv.Serve(ln2) //nolint:errcheck
		<-stop
		srv.Close()
	}()

	c := New("http://"+addr,
		WithRetry(20, 2*time.Millisecond, 10*time.Millisecond),
		WithJitterSeed(2))
	blob, err := c.Get(context.Background(), "/x")
	close(stop)
	<-done
	if err != nil {
		t.Skipf("port was not rebindable on this host: %v", err)
	}
	if string(blob) != "back" {
		t.Fatalf("got %q", blob)
	}
}

// TestContextDeadlineBoundsRetries: the deadline cuts the whole
// exchange, including backoff sleeps, not just one attempt.
func TestContextDeadlineBoundsRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "always down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := New(srv.URL,
		WithRetry(1000, 20*time.Millisecond, 100*time.Millisecond),
		WithJitterSeed(3))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Get(ctx, "/x")
	if err == nil {
		t.Fatal("expected failure")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound retries: took %v", elapsed)
	}
}
