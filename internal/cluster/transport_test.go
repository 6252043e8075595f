package cluster

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/mpi"
)

// meshRanks gives each worker's rank of one job a wire transport, as a
// job start would, with every clock on one origin so that ledger times
// compare across ranks. The coordinator knows nothing of the job: the
// caller drives the transports itself.
func meshRanks(job uint64, workers []*Worker) []*wireTransport {
	peers := make([]string, len(workers))
	for r, w := range workers {
		peers[r] = w.Addr()
	}
	start := time.Now()
	ts := make([]*wireTransport, len(workers))
	for r, w := range workers {
		j := newWorkerJob(job)
		j.start = start
		j.hdr = &jobHeader{Job: job, Size: len(workers), Rank: r, Peers: peers}
		w.mu.Lock()
		w.jobs[job] = j
		w.mu.Unlock()
		ts[r] = &wireTransport{w: w, j: j, rank: r}
	}
	return ts
}

// onRanks runs fn on one goroutine per rank and returns what each rank
// panicked with (nil for none).
func onRanks(ts []*wireTransport, fn func(*wireTransport)) []any {
	panics := make([]any, len(ts))
	var wg sync.WaitGroup
	for r, tr := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[r] = recover() }()
			fn(tr)
		}()
	}
	wg.Wait()
	return panics
}

// rotate gives rank r its own arrangement of vals, so that every element
// folds different values.
func rotate[T any](vals []T, r int) []T {
	return append(append([]T(nil), vals[r%len(vals):]...), vals[:r%len(vals)]...)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMeshAllreduce drives the collectives of three loopback workers'
// transports directly: each returns mpi.Reduce of the ranks' inputs bit
// for bit, every rank records one collective event per call and nothing
// else, with the dependency the critical-path walk follows, and a ragged
// contribution fails rank 0 with the typed internal error instead of
// panicking in mpi.Reduce. One rank folds locally and sends nothing.
func TestMeshAllreduce(t *testing.T) {
	base := runtime.NumGoroutine()
	coord, workers := startCluster(t, 250*time.Millisecond, 1, 1, 1)

	ints := []int64{math.MinInt64, -1, 0, 1<<53 + 1, math.MaxInt64}
	floats := []float64{0.1, 0.2, 0.3, math.Copysign(0, -1), 1e308}
	ops := []mpi.ReduceOp{mpi.OpSum, mpi.OpMax, mpi.OpMin}

	for job, size := range []int{1, 3} {
		ts := meshRanks(uint64(job+1), workers[:size])
		events := make([][]mpi.Event, size)
		for r, tr := range ts {
			tr.SetObserver(func(ev mpi.Event) { events[r] = append(events[r], ev) })
		}
		gotInts := make([][][]int64, size)
		gotFloats := make([][][]float64, size)
		panics := onRanks(ts, func(tr *wireTransport) {
			for _, op := range ops {
				gotInts[tr.rank] = append(gotInts[tr.rank], tr.AllreduceInt64(op, rotate(ints, tr.rank)))
				gotFloats[tr.rank] = append(gotFloats[tr.rank], tr.AllreduceFloat64(op, rotate(floats, tr.rank)))
			}
		})
		for r, p := range panics {
			if p != nil {
				t.Fatalf("P=%d rank %d panicked: %v", size, r, p)
			}
		}

		for i, op := range ops {
			allInts := make([][]int64, size)
			allFloats := make([][]float64, size)
			for r := range allInts {
				allInts[r], allFloats[r] = rotate(ints, r), rotate(floats, r)
			}
			wantInts, wantFloats := mpi.Reduce(op, allInts), mpi.Reduce(op, allFloats)
			for r := 0; r < size; r++ {
				if !sameBits(int64Words(gotInts[r][i]), int64Words(wantInts)) {
					t.Errorf("P=%d op %d rank %d: AllreduceInt64 = %v, want %v", size, op, r, gotInts[r][i], wantInts)
				}
				if !sameBits(gotFloats[r][i], wantFloats) {
					t.Errorf("P=%d op %d rank %d: AllreduceFloat64 = %v, want %v", size, op, r, gotFloats[r][i], wantFloats)
				}
			}
		}

		calls := 2 * len(ops)
		for r, tr := range ts {
			if len(events[r]) != calls {
				t.Errorf("P=%d rank %d recorded %d events for %d collectives", size, r, len(events[r]), calls)
			}
			for seq, ev := range events[r] {
				if ev.Kind != mpi.EventCollective || ev.Rank != r || ev.Peer != -1 || ev.Tag != seq || ev.Bytes != 8*len(ints) {
					t.Errorf("P=%d rank %d event %d: %+v, want collective %d of %d bytes with peer -1", size, r, seq, ev, seq, 8*len(ints))
				}
				if ev.DepRank < 0 || ev.DepRank >= size || ev.DepTime > ev.End {
					t.Errorf("P=%d rank %d collective %d: dependency rank %d at %v, end %v", size, r, seq, ev.DepRank, ev.DepTime, ev.End)
				}
			}
			// The mesh frames are the collective's, not sends or receives.
			if tr.Messages() != int64(calls) || tr.BytesSent() != 0 || tr.BytesRecv() != 0 {
				t.Errorf("P=%d rank %d counters: %d messages, %d bytes sent, %d received; want %d, 0, 0",
					size, r, tr.Messages(), tr.BytesSent(), tr.BytesRecv(), calls)
			}
		}
		if size == 1 {
			workers[0].mu.Lock()
			dialed := len(workers[0].peers)
			workers[0].mu.Unlock()
			if dialed != 0 {
				t.Errorf("a one-rank collective dialed %d mesh connections", dialed)
			}
		}
	}

	// A contribution longer than rank 0's: rank 0 fails, and the job's
	// abort (the coordinator's answer to that failure) unwinds the rest.
	ts := meshRanks(3, workers)
	panics := onRanks(ts, func(tr *wireTransport) {
		if tr.rank == 0 {
			defer func() {
				for _, o := range ts[1:] {
					o.j.abort(errs.New(errs.CodeInternal, "job aborted"))
				}
			}()
		}
		tr.AllreduceInt64(mpi.OpSum, make([]int64, 2+min(tr.rank, 1)))
	})
	wf, ok := panics[0].(wireFailure)
	if !ok {
		t.Fatalf("ragged collective: rank 0 panicked with %v, want a wire failure", panics[0])
	}
	if code, _ := errs.CodeOf(wf.err); code != errs.CodeInternal {
		t.Errorf("ragged collective: rank 0 failed with %v, want an internal error", wf.err)
	}
	for r, p := range panics[1:] {
		if _, ok := p.(wireFailure); !ok {
			t.Errorf("ragged collective: rank %d ended with %v, want the job's abort", r+1, p)
		}
	}

	for _, w := range workers {
		w.Close()
	}
	coord.Close()
	checkGoroutines(t, base)
}
