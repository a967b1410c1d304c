// Package wormclient is a small retrying HTTP client for the wormholed
// API, used by the e2e and chaos harnesses (and usable by any tenant).
//
// The retry discipline is deliberately narrow:
//
//   - transport errors (connection refused while a daemon restarts,
//     resets mid-kill) and 5xx responses are retried with capped,
//     jittered exponential backoff;
//   - 4xx responses are never retried — the request is wrong, and
//     resending it can only waste the server's admission budget. The one
//     nuance is 429, which is returned to the caller immediately too:
//     the daemon's Retry-After is advice for a scheduler, not license
//     for a library to spin;
//   - every attempt and every backoff sleep respects the caller's
//     context, so a deadline bounds the whole exchange, not one try.
//
// Responses are returned as (status, body) with a typed *StatusError for
// non-2xx, so callers can branch on the code without string matching.
package wormclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// StatusError is the typed non-2xx result: the final attempt's status
// and (bounded) body.
type StatusError struct {
	Code int
	Body []byte
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("wormclient: HTTP %d: %s", e.Code, e.Body)
}

// maxErrBody bounds how much of an error response is retained.
const maxErrBody = 4 << 10

// Client talks to one wormholed base URL. The zero value is not usable;
// call New.
type Client struct {
	base string
	http *http.Client

	maxAttempts int
	backoff     time.Duration
	backoffCap  time.Duration

	mu  sync.Mutex
	rnd *rand.Rand // jitter source; seeded for reproducible harnesses
}

// Option adjusts a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying transport.
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithRetry sets the attempt budget and backoff window. attempts counts
// total tries (1 = no retries); backoff doubles per retry up to cap.
func WithRetry(attempts int, backoff, cap time.Duration) Option {
	return func(c *Client) {
		c.maxAttempts = attempts
		c.backoff = backoff
		c.backoffCap = cap
	}
}

// WithJitterSeed fixes the jitter RNG, making backoff sequences
// reproducible in tests.
func WithJitterSeed(seed int64) Option {
	return func(c *Client) { c.rnd = rand.New(rand.NewSource(seed)) }
}

// New returns a client for the wormholed at base (e.g.
// "http://127.0.0.1:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:        base,
		http:        &http.Client{Timeout: 30 * time.Second},
		maxAttempts: 5,
		backoff:     50 * time.Millisecond,
		backoffCap:  2 * time.Second,
		rnd:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// retryable reports whether an attempt outcome warrants another try.
func retryable(code int, err error) bool {
	if err != nil {
		return true // transport-level: refused, reset, daemon mid-restart
	}
	return code >= 500
}

// sleep waits one jittered backoff slot or until ctx is done.
func (c *Client) sleep(ctx context.Context, attempt int) error {
	d := c.backoff << attempt
	if d > c.backoffCap {
		d = c.backoffCap
	}
	// Uniform jitter over [d/2, d): desynchronizes competing clients
	// without ever collapsing the wait to zero.
	c.mu.Lock()
	d = d/2 + time.Duration(c.rnd.Int63n(int64(d/2)+1))
	c.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do issues method path with body, retrying per the client's policy.
// On 2xx it returns the response body; otherwise a *StatusError (non-2xx
// after retries are exhausted or ineligible) or the last transport
// error.
func (c *Client) Do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, attempt-1); err != nil {
				return nil, err
			}
		}
		blob, code, err := c.once(ctx, method, path, body)
		switch {
		case err == nil && code < 300:
			return blob, nil
		case err != nil:
			if ctx.Err() != nil {
				return nil, err
			}
			lastErr = err
		default:
			if len(blob) > maxErrBody {
				blob = blob[:maxErrBody]
			}
			lastErr = &StatusError{Code: code, Body: blob}
			if !retryable(code, nil) {
				return nil, lastErr // 4xx: resending the same request can't help
			}
		}
	}
	return nil, lastErr
}

func (c *Client) once(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return blob, resp.StatusCode, nil
}

// GetJSON GETs path and decodes the response into out.
func (c *Client) GetJSON(ctx context.Context, path string, out any) error {
	blob, err := c.Do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(blob, out)
}

// PostJSON POSTs in as JSON to path and, when out is non-nil, decodes
// the response into it.
func (c *Client) PostJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	blob, err := c.Do(ctx, http.MethodPost, path, body)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(blob, out)
}

// Get GETs path and returns the raw body.
func (c *Client) Get(ctx context.Context, path string) ([]byte, error) {
	return c.Do(ctx, http.MethodGet, path, nil)
}
