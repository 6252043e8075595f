package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/errs"
)

// RetryPolicy configures automatic retries for idempotent requests:
// GETs (Health, RecentEvals, GetUpload...), plan registrations (safe to
// repeat — plans are content-addressed) and evaluation POSTs, which
// the client makes safe by attaching an Idempotency-Key header the
// server deduplicates: a retried evaluation whose first attempt
// actually ran replays the stored response instead of burning a second
// sweep. Without a policy POSTs are never retried.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// retry (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (default 2s).
	MaxDelay time.Duration
	// PerAttemptTimeout bounds each individual attempt. Zero leaves
	// attempts bounded only by the caller's context. A per-attempt
	// timeout does not abort the retry loop — only the caller's own
	// context does.
	PerAttemptTimeout time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// WithRetry makes the client's idempotent requests retry transient
// failures — transport errors and 5xx responses (a restarting server,
// a cluster whose workers momentarily vanished) — with exponential
// backoff and equal jitter. Non-transient typed errors (4xx: invalid
// input, plan not found...) pass through on the first attempt
// unchanged, and the final error of an exhausted retry budget is
// exactly what a single-shot client would have returned.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) {
		pol := p.withDefaults()
		c.retry = &pol
	}
}

// decodeError marks a failure to decode the body of a successful (2xx)
// response. The server already did the work and answered; the bytes
// were just not what this client expects — a deterministic mismatch
// (version skew, a proxy mangling the body), not transient weather, so
// the retry loop treats it as final instead of burning every attempt
// on the same bad payload.
type decodeError struct {
	err error
}

func (e *decodeError) Error() string {
	return fmt.Sprintf("client: decoding response: %v", e.err)
}

func (e *decodeError) Unwrap() error { return e.err }

// retryable reports whether a failed attempt is worth repeating:
// anything transport-level (the server may be back next attempt) and
// any 5xx status. 4xx statuses are the caller's mistake, and a 2xx
// whose body failed to decode is deterministic — both stay final.
// Caller-context cancellation is handled by the retry loop, not here.
func retryable(err error) bool {
	var dec *decodeError
	if errors.As(err, &dec) {
		return false
	}
	var api *APIError
	if errors.As(err, &api) {
		return api.StatusCode >= http.StatusInternalServerError
	}
	return true
}

// attemptContext bounds one attempt by the policy's PerAttemptTimeout,
// when there is one.
func (c *Client) attemptContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.retry != nil && c.retry.PerAttemptTimeout > 0 {
		return context.WithTimeout(ctx, c.retry.PerAttemptTimeout)
	}
	return ctx, func() {}
}

// withRetry runs attempt under the client's retry policy: exponential
// backoff with equal jitter between tries, an optional per-attempt
// timeout, and an immediate stop when the error is final or the
// caller's own context ends. Without a policy it is one plain attempt.
func (c *Client) withRetry(ctx context.Context, attempt func(ctx context.Context) error) error {
	if c.retry == nil {
		return attempt(ctx)
	}
	p := *c.retry
	delay := p.BaseDelay
	var err error
	for try := 0; try < p.MaxAttempts; try++ {
		if try > 0 {
			// Equal jitter: half deterministic, half uniform — spreads
			// synchronized clients without losing the backoff floor.
			d := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return errs.FromContext(ctx.Err())
			}
			if delay *= 2; delay > p.MaxDelay {
				delay = p.MaxDelay
			}
		}
		actx, cancel := c.attemptContext(ctx)
		err = attempt(actx)
		cancel()
		if err == nil || !retryable(err) {
			return err
		}
		// A dead parent context means the failure is the caller's
		// cancellation, not the server's weather: stop immediately. A
		// per-attempt timeout leaves the parent alive and retries.
		if ctx.Err() != nil {
			return err
		}
	}
	return err
}
