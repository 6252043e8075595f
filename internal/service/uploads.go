package service

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/errs"
)

// Chunked geometry upload: a client that cannot (or does not want to)
// ship a whole coordinate array in one request creates an upload,
// appends bounded binary chunks by word offset, and then registers a
// plan referencing the upload id ("src_upload"/"trg_upload" in
// PlanRequest). Appends are idempotent on the committed prefix —
// re-sending an already-received chunk is a no-op — so a client whose
// chunk timed out in flight can blindly retry it, and GET
// /v1/uploads/{id} reports received_words for resuming after a
// disconnect.
//
//	POST /v1/uploads          JSON {"words": N}   -> 201 UploadStatus
//	POST /v1/uploads/{id}     frame: magic, u64 word offset, f64s chunk
//	                                             -> 200 UploadStatus
//	GET  /v1/uploads/{id}                        -> 200 UploadStatus
//
// Uploads are in-memory, bounded in aggregate by Config.UploadBytes,
// and expire after uploadTTL of inactivity; a registered plan copies
// nothing (the upload's backing array becomes the plan's geometry), so
// one upload can seed many plans until it expires.

// uploadTTL is how long an upload survives without being appended to,
// polled, or resolved into a plan.
const uploadTTL = 15 * time.Minute

// UploadStatus is the JSON body reported by every upload endpoint.
type UploadStatus struct {
	// ID names the upload; pass it as src_upload/trg_upload in a plan
	// registration.
	ID string `json:"upload_id"`
	// Words is the declared total float64 word count.
	Words int `json:"words"`
	// ReceivedWords is the committed contiguous prefix; resume from
	// this offset.
	ReceivedWords int `json:"received_words"`
	// Complete reports ReceivedWords == Words.
	Complete bool `json:"complete"`
}

// UploadCreateRequest is the JSON body of POST /v1/uploads.
type UploadCreateRequest struct {
	// Words is the total number of float64 words the upload will carry
	// (for coordinates: 3 x point count).
	Words int `json:"words"`
}

// upload is one in-flight chunked transfer.
type upload struct {
	id       string
	data     []float64
	received int
	touched  time.Time
}

func (u *upload) status() UploadStatus {
	return UploadStatus{
		ID: u.id, Words: len(u.data), ReceivedWords: u.received,
		Complete: u.received == len(u.data),
	}
}

// uploadStore owns every in-flight upload; bounded by maxBytes in
// aggregate, expiring idle entries on access (no background goroutine
// to leak).
type uploadStore struct {
	mu       sync.Mutex
	m        map[string]*upload
	seq      int64
	maxBytes int64
	curBytes int64
}

func newUploadStore(maxBytes int64) *uploadStore {
	return &uploadStore{m: make(map[string]*upload), maxBytes: maxBytes}
}

// purgeLocked drops uploads idle past the TTL, releasing their bytes.
func (st *uploadStore) purgeLocked(now time.Time) {
	for id, u := range st.m {
		if now.Sub(u.touched) > uploadTTL {
			st.curBytes -= int64(len(u.data)) * 8
			delete(st.m, id)
		}
	}
}

// create allocates a new upload of the declared word count.
func (st *uploadStore) create(words int) (UploadStatus, error) {
	if words <= 0 {
		return UploadStatus{}, badRequest("upload words must be positive, got %d", words)
	}
	bytes := int64(words) * 8
	st.mu.Lock()
	defer st.mu.Unlock()
	st.purgeLocked(time.Now())
	if bytes > st.maxBytes || st.curBytes+bytes > st.maxBytes {
		return UploadStatus{}, tooLarge("upload of %d words (%d bytes) exceeds the upload budget (%d of %d bytes free)",
			words, bytes, st.maxBytes-st.curBytes, st.maxBytes)
	}
	st.seq++
	u := &upload{
		id:      "up" + strconv.FormatInt(st.seq, 36) + "-" + strconv.FormatInt(time.Now().UnixNano()%1e9, 36),
		data:    make([]float64, words),
		touched: time.Now(),
	}
	st.m[u.id] = u
	st.curBytes += bytes
	return u.status(), nil
}

// get looks an upload up, refreshing its TTL.
func (st *uploadStore) get(id string) (*upload, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.purgeLocked(time.Now())
	u, ok := st.m[id]
	if !ok {
		return nil, errs.Newf(errs.CodePlanNotFound, "service: upload not found: %q (expired or never created)", id)
	}
	u.touched = time.Now()
	return u, nil
}

// append commits chunk at word offset off. Offsets at or before the
// committed prefix are idempotent (the overlap is re-written with
// identical data by a retrying client; only the new suffix extends the
// prefix); an offset past the prefix is a gap and is rejected.
func (st *uploadStore) append(id string, off uint64, chunk []float64) (UploadStatus, error) {
	u, err := st.get(id)
	if err != nil {
		return UploadStatus{}, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if off > uint64(u.received) {
		return UploadStatus{}, badRequest("upload %s: chunk offset %d leaves a gap (received %d words); resume at the received offset", id, off, u.received)
	}
	end := off + uint64(len(chunk))
	if end > uint64(len(u.data)) {
		return UploadStatus{}, badRequest("upload %s: chunk [%d, %d) exceeds the declared %d words", id, off, end, len(u.data))
	}
	copy(u.data[off:end], chunk)
	if int(end) > u.received {
		u.received = int(end)
	}
	return u.status(), nil
}

// take resolves a completed upload's data for plan registration. The
// upload stays resident (TTL refreshed) so retried registrations and
// sibling plans can reuse it.
func (st *uploadStore) take(id string) ([]float64, error) {
	u, err := st.get(id)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if u.received != len(u.data) {
		return nil, badRequest("upload %s is incomplete: %d of %d words received", id, u.received, len(u.data))
	}
	return u.data, nil
}

// --- HTTP handlers ---

func (s *Server) handleUploadCreate(w http.ResponseWriter, r *http.Request) {
	var req UploadCreateRequest
	err := readJSON(http.MaxBytesReader(w, r.Body, maxBodyBytes), &req)
	var st UploadStatus
	if err == nil {
		st, err = s.svc.uploads.create(req.Words)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleUploadChunk(w http.ResponseWriter, r *http.Request) {
	req, ok := s.readRequest(w, r, ShapeChunk)
	if !ok {
		return
	}
	st, err := s.svc.uploads.append(r.PathValue("id"), req.Offset, sole(req.Vectors))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleUploadStatus(w http.ResponseWriter, r *http.Request) {
	u, err := s.svc.uploads.get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	s.svc.uploads.mu.Lock()
	st := u.status()
	s.svc.uploads.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}
