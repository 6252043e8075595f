package cluster

import (
	"encoding/json"

	"repro/internal/errs"
	"repro/internal/fmm"
	"repro/internal/kernels"
	"repro/internal/parfmm"
	"repro/internal/wire"
)

// helloMsg is the worker->coordinator handshake (JSON payload of
// fHello): the worker's mesh listener address.
type helloMsg struct {
	PeerAddr string `json:"peer_addr"`
}

// helloAck is the coordinator's handshake reply (JSON payload of
// fHelloAck).
type helloAck struct {
	WorkerID    int64 `json:"worker_id"`
	HeartbeatNS int64 `json:"heartbeat_ns"`
}

// jobHeader is the JSON part of a job-start frame: everything about the
// job except the bulk rank inputs.
type jobHeader struct {
	Job  uint64 `json:"job"`
	Size int    `json:"size"` // total ranks, one per worker
	// Rank is the receiving worker's rank.
	Rank int `json:"rank"`
	// Peers is the mesh address of every rank's worker, by rank.
	Peers []string `json:"peers"`

	Kernel    kernels.Spec `json:"kernel"`
	Degree    int          `json:"degree,omitempty"`
	MaxPoints int          `json:"max_points,omitempty"`
	MaxDepth  int          `json:"max_depth,omitempty"`
}

// header is the job header every worker of the job gets, short of its
// own rank: the request's options, field for field.
func (req *EvalRequest) header(job uint64, peers []string) jobHeader {
	return jobHeader{
		Job: job, Size: len(peers), Peers: peers,
		Kernel: req.Kernel, Degree: req.Degree, MaxPoints: req.MaxPoints, MaxDepth: req.MaxDepth,
	}
}

// options resolves the header into what the worker's rank evaluates with.
func (h *jobHeader) options() (parfmm.Options, error) {
	kern, err := kernels.FromSpec(h.Kernel)
	if err != nil {
		return parfmm.Options{}, errs.Typed(err, errs.CodeInvalidInput)
	}
	return parfmm.Options{
		Options: fmm.Options{
			Kernel: kern, Degree: h.Degree, MaxPoints: h.MaxPoints, MaxDepth: h.MaxDepth,
		},
		// Always trace: the ledger is cheap at cluster scale and feeds the
		// per-pass wire metrics and the rank trees of /v1/evals/recent.
		Trace: true,
	}, nil
}

// encodeJobStart assembles a job-start payload: the JSON header plus
// the receiving worker's rank input as raw binary arrays.
func encodeJobStart(hdr *jobHeader, in *parfmm.RankInput) ([]byte, error) {
	raw, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	var w wire.Writer
	w.Raw(raw)
	w.F64s(in.Pts)
	w.F64s(in.Den)
	w.I32s(in.GlobalIdx)
	return w.Bytes(), nil
}

// decodeJobStart parses a job-start payload into the header and the
// worker's rank input. A header whose rank is not one of its ranks, or
// that does not name a mesh address for every rank, is malformed.
func decodeJobStart(p []byte) (*jobHeader, *parfmm.RankInput, error) {
	r := wire.NewReader(p)
	raw := r.Raw()
	if err := frameErr(r); err != nil {
		return nil, nil, err
	}
	var hdr jobHeader
	if err := json.Unmarshal(raw, &hdr); err != nil {
		return nil, nil, err
	}
	if hdr.Size < 1 || hdr.Rank < 0 || hdr.Rank >= hdr.Size || len(hdr.Peers) != hdr.Size {
		return nil, nil, errMalformed()
	}
	in := &parfmm.RankInput{Pts: r.F64s(), Den: r.F64s(), GlobalIdx: r.I32s()}
	if err := frameErr(r); err != nil {
		return nil, nil, err
	}
	return &hdr, in, nil
}

// rankResultWire is the one rank's result a job-result frame carries.
type rankResultWire struct {
	Rank int
	Pot  []float64
	// TL is the rank's JSON-encoded obs.RankTimeline (empty without
	// tracing). Not hot path: one blob per rank per job.
	TL []byte
}

func encodeJobResult(job uint64, rr rankResultWire) []byte {
	var w wire.Writer
	w.U64(job)
	w.U32(uint32(rr.Rank))
	w.F64s(rr.Pot)
	w.Raw(rr.TL)
	return w.Bytes()
}

func decodeJobResult(p []byte) (job uint64, rr rankResultWire, err error) {
	r := wire.NewReader(p)
	job = r.U64()
	rr.Rank = int(r.U32())
	rr.Pot = r.F64s()
	rr.TL = append([]byte(nil), r.Raw()...)
	return job, rr, frameErr(r)
}

// encodeJobStatus covers job-error (worker->coordinator) and job-abort
// (coordinator->worker): a job id, a taxonomy code and a message.
func encodeJobStatus(job uint64, code, msg string) []byte {
	var w wire.Writer
	w.U64(job)
	w.Raw([]byte(code))
	w.Raw([]byte(msg))
	return w.Bytes()
}

func decodeJobStatus(p []byte) (job uint64, code, msg string, err error) {
	r := wire.NewReader(p)
	job = r.U64()
	code = string(r.Raw())
	msg = string(r.Raw())
	return job, code, msg, frameErr(r)
}

// p2pMsg is one rank-to-rank payload on the mesh (fP2P). SentNS is the
// sender's clock offset at send completion (its job-origin wall clock),
// carried so the receiver's ledger event gets a cross-rank dependency
// timestamp.
type p2pMsg struct {
	Job    uint64
	Src    int
	Dst    int
	Tag    int
	SentNS int64
	Data   []float64
}

func encodeP2P(m *p2pMsg) []byte {
	var w wire.Writer
	w.U64(m.Job)
	w.U32(uint32(m.Src))
	w.U32(uint32(m.Dst))
	w.U64(uint64(m.Tag))
	w.I64(m.SentNS)
	w.F64s(m.Data)
	return w.Bytes()
}

func decodeP2P(p []byte) (*p2pMsg, error) {
	r := wire.NewReader(p)
	m := &p2pMsg{
		Job: r.U64(),
		Src: int(r.U32()),
		Dst: int(r.U32()),
		Tag: int(r.U64()),
	}
	m.SentNS = r.I64()
	m.Data = r.F64s()
	return m, frameErr(r)
}
