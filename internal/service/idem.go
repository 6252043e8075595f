package service

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/errs"
)

// Idempotency-Key request deduplication for the evaluation POSTs. A
// client that sets the header can safely retry a POST whose response
// was lost in transit: the first request to arrive under a key becomes
// the leader and executes normally; concurrent duplicates block until
// it settles; and later duplicates replay the stored response
// byte-for-byte (marked Idempotency-Replayed: true) without
// re-running the evaluation. Only an outcome of the request is stored.
// A 5xx is not one — a retry after a transient worker_lost re-executes
// instead of replaying the failure — and neither is anything written
// for a caller that had already gone (499, or a request context that is
// done when the handler returns): that response reports how one attempt
// ended, and the retry it would poison is the very request the key
// protects. A waiter whose leader stored nothing promotes itself to
// leader and re-executes.
//
// Keys are scoped to method + path, so the same key against two plans
// never collides. Entries are bounded in count and bytes and expire
// after idemTTL; oversized responses are served but not stored (a
// duplicate re-executes — dedup is best-effort above the size cap).

const (
	// idemTTL is how long a settled entry replays before expiring.
	idemTTL = 10 * time.Minute
	// idemMaxEntries bounds the table; the oldest settled entries are
	// evicted first.
	idemMaxEntries = 1024
	// idemMaxBodyBytes bounds one stored response body.
	idemMaxBodyBytes = 64 << 20
	// idemMaxTotalBytes bounds all stored response bodies together.
	idemMaxTotalBytes = 256 << 20
)

// idemEntry is one key's lifecycle: in-flight until done is closed,
// then either stored (replayable) or not (the leader failed; waiters
// re-execute).
type idemEntry struct {
	done chan struct{}

	// Settled state, written once before done closes.
	stored      bool
	status      int
	contentType string
	body        []byte
	settled     time.Time
}

type idemStore struct {
	mu       sync.Mutex
	m        map[string]*idemEntry
	curBytes int64
}

func newIdemStore() *idemStore {
	return &idemStore{m: make(map[string]*idemEntry)}
}

// begin claims the key: (entry, true) makes the caller the leader who
// must execute and settle it; (entry, false) hands back an entry to
// wait on or replay.
func (st *idemStore) begin(key string) (*idemEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.purgeLocked(time.Now())
	if e, ok := st.m[key]; ok {
		return e, false
	}
	e := &idemEntry{done: make(chan struct{})}
	st.m[key] = e
	return e, true
}

// settle records the leader's outcome and wakes waiters. Unstorable
// outcomes (the caller's verdict, 5xx, a caller's own cancellation,
// oversized, over budget) drop the entry so the next request under the
// key executes fresh.
func (st *idemStore) settle(key string, e *idemEntry, status int, contentType string, body []byte, storable bool) {
	st.mu.Lock()
	storable = storable && status < 500 && status != StatusClientClosedRequest &&
		int64(len(body)) <= idemMaxBodyBytes &&
		st.curBytes+int64(len(body)) <= idemMaxTotalBytes
	if storable {
		e.stored = true
		e.status = status
		e.contentType = contentType
		e.body = body
		e.settled = time.Now()
		st.curBytes += int64(len(body))
	} else {
		delete(st.m, key)
	}
	st.mu.Unlock()
	close(e.done)
}

// purgeLocked expires settled entries past the TTL and evicts the
// oldest settled entries over the count bound. In-flight entries are
// never purged — their leader settles or the server restarts.
func (st *idemStore) purgeLocked(now time.Time) {
	for key, e := range st.m {
		if e.stored && now.Sub(e.settled) > idemTTL {
			st.curBytes -= int64(len(e.body))
			delete(st.m, key)
		}
	}
	for len(st.m) > idemMaxEntries {
		oldestKey := ""
		var oldest time.Time
		for key, e := range st.m {
			if e.stored && (oldestKey == "" || e.settled.Before(oldest)) {
				oldestKey, oldest = key, e.settled
			}
		}
		if oldestKey == "" {
			return // all in flight; nothing evictable
		}
		st.curBytes -= int64(len(st.m[oldestKey].body))
		delete(st.m, oldestKey)
	}
}

// recordingWriter tees the response to the client while capturing it
// for replay. Past the per-entry size cap it stops capturing and marks
// the response unstorable.
type recordingWriter struct {
	http.ResponseWriter
	status     int
	body       []byte
	overflowed bool
}

func (w *recordingWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *recordingWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if !w.overflowed {
		if len(w.body)+len(b) > idemMaxBodyBytes {
			w.overflowed = true
			w.body = nil
		} else {
			w.body = append(w.body, b...)
		}
	}
	return w.ResponseWriter.Write(b)
}

// idempotent wraps an evaluation handler with Idempotency-Key
// deduplication; requests without the header pass straight through.
func (s *Server) idempotent(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get("Idempotency-Key")
		if key == "" {
			h(w, r)
			return
		}
		mapKey := r.Method + " " + r.URL.Path + " " + key
		for {
			e, leader := s.idem.begin(mapKey)
			if leader {
				rec := &recordingWriter{ResponseWriter: w}
				h(rec, r)
				status := rec.status
				if status == 0 {
					status = http.StatusOK
				}
				s.idem.settle(mapKey, e, status, rec.Header().Get("Content-Type"), rec.body,
					!rec.overflowed && r.Context().Err() == nil)
				return
			}
			select {
			case <-e.done:
			case <-r.Context().Done():
				writeError(w, errs.FromContext(r.Context().Err()))
				return
			}
			if e.stored {
				w.Header().Set("Content-Type", e.contentType)
				w.Header().Set("Idempotency-Replayed", "true")
				w.WriteHeader(e.status)
				_, _ = w.Write(e.body)
				return
			}
			// The leader failed without a storable response; promote
			// this waiter to leader and re-execute.
		}
	}
}
