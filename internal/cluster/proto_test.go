package cluster

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/fmm"
	"repro/internal/kernels"
	"repro/internal/parfmm"
	"repro/internal/wire"
)

// TestJobHeaderCarriesEveryOption is the wire-side twin of the root
// package's TestPlanKeyCoversOptions: every field of fmm.Options that can
// change what an evaluator computes (all but the scheduling pair Workers
// and Pool) must survive request -> job header -> job-start frame -> the
// worker's options. A field added to fmm.Options and hashed into the plan
// key but not carried here would have the ranks of a cluster evaluation
// compute with its default, silently.
func TestJobHeaderCarriesEveryOption(t *testing.T) {
	typ := reflect.TypeOf(fmm.Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if name == "Workers" || name == "Pool" {
			continue
		}
		req := EvalRequest{Kernel: kernels.Spec{Name: "laplace"}}
		f := reflect.ValueOf(&req).Elem().FieldByName(name)
		if !f.IsValid() {
			t.Errorf("EvalRequest has no field for fmm.Options.%s", name)
			continue
		}
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(1)
		case reflect.Struct: // Kernel: the spec stands for the interface
		default:
			t.Fatalf("EvalRequest.%s: the test cannot set a %s", name, f.Kind())
		}
		hdr := req.header(1, []string{"a:1"})
		payload, err := encodeJobStart(&hdr, &parfmm.RankInput{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := decodeJobStart(payload)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := got.options()
		if err != nil {
			t.Fatal(err)
		}
		if reflect.ValueOf(opt.Options).FieldByName(name).IsZero() {
			t.Errorf("fmm.Options.%s set on the request reaches the rank as zero", name)
		}
	}
}

// memConn is a net.Conn over an in-memory reader and writer, so the
// framing can be driven without a socket (nothing else of the embedded
// nil Conn is reached).
type memConn struct {
	net.Conn
	r io.Reader
	w io.Writer
}

func (c memConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c memConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// TestReadFrameDoesNotTrustLength: a length word claiming a gigabyte,
// followed by ten bytes, costs this side a read buffer, not a gigabyte.
func TestReadFrameDoesNotTrustLength(t *testing.T) {
	stream := binary.LittleEndian.AppendUint32(nil, maxFrameBytes)
	stream = append(stream, make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := newFramedConn(memConn{r: bytes.NewReader(stream)}).readFrame()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated frame was read without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*frameStep {
		t.Errorf("readFrame allocated %d bytes for a 14-byte stream", got)
	}
}

// FuzzProto feeds arbitrary bytes to every decoder of the cluster wire
// that faces a socket. None may panic or decode more than the payload
// holds (a decoder trusting a count word would), and whatever decodes
// cleanly must encode back to the bytes it came from.
func FuzzProto(f *testing.F) {
	hdr := &jobHeader{
		Job: 7, Size: 2, Rank: 1, Peers: []string{"a:1", "b:2"},
		Kernel: kernels.Spec{Name: "modlaplace", Params: map[string]float64{"lambda": 2}},
		Degree: 6, MaxPoints: 60, MaxDepth: 9,
	}
	start, err := encodeJobStart(hdr, &parfmm.RankInput{Pts: []float64{1, 2, 3}, Den: []float64{0.5}})
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		start,
		encodeJobResult(7, rankResultWire{Rank: 1, Pot: []float64{1.5}, TL: []byte(`{"rank":1}`)}),
		encodeJobStatus(7, "worker_lost", "gone"),
		encodeP2P(&p2pMsg{Job: 7, Src: 1, Dst: 3, Tag: 42, SentNS: 12345, Data: []float64{1.5, -2.5}}),
		// Collective traffic, under the tag -1 - seq: a float64 and a
		// bit-cast int64 contribution to rank 0 (-1 is a NaN's bits), and
		// rank 0's answers, the result followed by the last rank to enter
		// and its entry time (an empty vector's answer is those two alone).
		encodeP2P(&p2pMsg{Job: 7, Src: 2, Tag: -6, SentNS: 99, Data: []float64{3.25}}),
		encodeP2P(&p2pMsg{Job: 7, Src: 1, Tag: -7, SentNS: 98, Data: int64Words([]int64{-4, 1 << 40, -1})}),
		encodeP2P(&p2pMsg{Job: 7, Dst: 2, Tag: -6, SentNS: 120, Data: append([]float64{3.25}, int64Words([]int64{1, 98})...)}),
		encodeP2P(&p2pMsg{Job: 7, Dst: 1, Tag: -1, SentNS: 5, Data: int64Words([]int64{2, 4})}),
		{}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	}
	for _, s := range seeds {
		f.Add(s)
		// The same bytes as a frame on a connection, whole and cut short.
		framed := binary.LittleEndian.AppendUint32(nil, uint32(1+len(s)))
		framed = append(append(framed, byte(fP2P)), s...)
		f.Add(framed)
		f.Add(framed[:len(framed)/2])
	}
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrameBytes+1))
	var huge wire.Writer // a header promising two billion ranks and naming one
	huge.Raw([]byte(`{"size":2000000000,"rank":5,"peers":["a:1"]}`))
	f.Add(huge.Bytes())

	f.Fuzz(func(t *testing.T, p []byte) {
		// canonical fails unless enc, the re-encoding of what decoded from
		// p, is the bytes it was decoded from: nothing was dropped or made
		// up, and nothing decoded is larger than what p carried. (Bytes, not
		// values: a NaN payload must survive too.)
		canonical := func(what string, enc []byte) {
			if !bytes.HasPrefix(p, enc) {
				t.Fatalf("%s: decode then encode changed the bytes:\n got % x\nfrom % x", what, enc, p)
			}
		}
		if job, rr, err := decodeJobResult(p); err == nil {
			canonical("job result", encodeJobResult(job, rr))
		}
		if job, code, msg, err := decodeJobStatus(p); err == nil {
			canonical("job status", encodeJobStatus(job, code, msg))
		}
		if m, err := decodeP2P(p); err == nil {
			canonical("p2p", encodeP2P(m))
		}
		// A job start opens with a JSON header, which has many spellings:
		// the header must survive a round trip as a value, the rank input
		// behind it as bytes.
		if h, in, err := decodeJobStart(p); err == nil {
			enc, err := encodeJobStart(h, in)
			if err != nil {
				t.Fatalf("re-encoding a decoded job start: %v", err)
			}
			if h2, _, err := decodeJobStart(enc); err != nil || !reflect.DeepEqual(h, h2) {
				t.Fatalf("job header does not survive a round trip (err %v):\n got %+v\nwant %+v", err, h2, h)
			}
			inputs := func(b []byte) []byte { return b[4+len(wire.NewReader(b).Raw()):] }
			if !bytes.HasPrefix(inputs(p), inputs(enc)) {
				t.Fatalf("rank input: decode then encode changed the bytes:\n got % x\nfrom % x", inputs(enc), inputs(p))
			}
		}

		// p as a byte stream: every frame readFrame returns was in it.
		fc := newFramedConn(memConn{r: bytes.NewReader(p)})
		for read := 0; ; {
			ft, payload, err := fc.readFrame()
			if err != nil {
				break
			}
			if read += frameHeaderBytes + 1 + len(payload); read > len(p) {
				t.Fatalf("readFrame returned %d bytes of frames from a %d-byte stream", read, len(p))
			}
			back := &bytes.Buffer{}
			if err := newFramedConn(memConn{w: back}).writeFrame(ft, payload); err != nil {
				t.Fatal(err)
			}
			if want := p[read-back.Len() : read]; !bytes.Equal(back.Bytes(), want) {
				t.Fatalf("frame does not re-encode to the bytes read:\n got % x\nwant % x", back.Bytes(), want)
			}
		}
	})
}
