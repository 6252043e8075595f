package mpi

import (
	"math/rand"
	"testing"
	"time"
)

func fastMachine() Machine {
	return Machine{Latency: time.Microsecond, Bandwidth: 1e9}
}

func TestSendRecvRoundtrip(t *testing.T) {
	Run(2, fastMachine(), func(c *Comm) {
		if c.Rank() == 0 {
			c.SendFloat64s(1, 7, []float64{1, 2, 3})
			got := c.RecvFloat64s(1, 8)
			if len(got) != 2 || got[0] != 4 || got[1] != 5 {
				t.Errorf("rank 0 received %v", got)
			}
		} else {
			got := c.RecvFloat64s(0, 7)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("rank 1 received %v", got)
			}
			c.SendFloat64s(0, 8, []float64{4, 5})
		}
	})
}

func TestSendIsBuffered(t *testing.T) {
	// Both ranks send before receiving; eager buffering must avoid the
	// classic head-to-head deadlock (the paper's gather/scatter relies on
	// this pattern).
	Run(2, fastMachine(), func(c *Comm) {
		peer := 1 - c.Rank()
		c.SendFloat64s(peer, 0, []float64{float64(c.Rank())})
		got := c.RecvFloat64s(peer, 0)
		if got[0] != float64(peer) {
			t.Errorf("rank %d got %v", c.Rank(), got)
		}
	})
}

func TestMessageOrderPreservedPerPair(t *testing.T) {
	Run(2, fastMachine(), func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 20; i++ {
				c.SendFloat64s(1, 3, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 20; i++ {
				got := c.RecvFloat64s(0, 3)
				if got[0] != float64(i) {
					t.Fatalf("out of order: got %v want %d", got[0], i)
				}
			}
		}
	})
}

func TestTagMatching(t *testing.T) {
	Run(2, fastMachine(), func(c *Comm) {
		if c.Rank() == 0 {
			c.SendFloat64s(1, 1, []float64{1})
			c.SendFloat64s(1, 2, []float64{2})
		} else {
			// Receive in reverse tag order.
			b := c.RecvFloat64s(0, 2)
			a := c.RecvFloat64s(0, 1)
			if b[0] != 2 || a[0] != 1 {
				t.Errorf("tag matching broken: %v %v", a, b)
			}
		}
	})
}

func TestAllreduceMatchesSequential(t *testing.T) {
	for _, size := range []int{1, 2, 3, 8} {
		rng := rand.New(rand.NewSource(int64(size)))
		n := 50
		inputs := make([][]int64, size)
		for r := range inputs {
			inputs[r] = make([]int64, n)
			for i := range inputs[r] {
				inputs[r][i] = int64(rng.Intn(1000) - 500)
			}
		}
		wantSum := make([]int64, n)
		wantMax := make([]int64, n)
		wantMin := make([]int64, n)
		for i := 0; i < n; i++ {
			wantMax[i] = inputs[0][i]
			wantMin[i] = inputs[0][i]
			for r := 0; r < size; r++ {
				wantSum[i] += inputs[r][i]
				if inputs[r][i] > wantMax[i] {
					wantMax[i] = inputs[r][i]
				}
				if inputs[r][i] < wantMin[i] {
					wantMin[i] = inputs[r][i]
				}
			}
		}
		Run(size, fastMachine(), func(c *Comm) {
			gotSum := c.AllreduceInt64(OpSum, inputs[c.Rank()])
			gotMax := c.AllreduceInt64(OpMax, inputs[c.Rank()])
			gotMin := c.AllreduceInt64(OpMin, inputs[c.Rank()])
			for i := 0; i < n; i++ {
				if gotSum[i] != wantSum[i] || gotMax[i] != wantMax[i] || gotMin[i] != wantMin[i] {
					t.Errorf("size=%d rank=%d: allreduce mismatch at %d", size, c.Rank(), i)
					return
				}
			}
		})
	}
}

func TestAllreduceFloat64(t *testing.T) {
	Run(4, fastMachine(), func(c *Comm) {
		got := c.AllreduceFloat64(OpSum, []float64{float64(c.Rank()), 1})
		if got[0] != 6 || got[1] != 4 {
			t.Errorf("rank %d: got %v", c.Rank(), got)
		}
	})
}

// reduceCase checks Reduce over one element type against a per-element
// fold written out by hand, for every operator and for 1 and 5 ranks.
func reduceCase[T int64 | float64](t *testing.T, name string, gen func(*rand.Rand) T) {
	for _, ranks := range []int{1, 5} {
		rng := rand.New(rand.NewSource(int64(ranks)))
		all := make([][]T, ranks)
		for r := range all {
			all[r] = make([]T, 7)
			for i := range all[r] {
				all[r][i] = gen(rng)
			}
		}
		first := append([]T(nil), all[0]...)
		for _, tc := range []struct {
			op   ReduceOp
			fold func(acc, v T) T
		}{
			{OpSum, func(acc, v T) T { return acc + v }},
			{OpMax, func(acc, v T) T {
				if v > acc {
					return v
				}
				return acc
			}},
			{OpMin, func(acc, v T) T {
				if v < acc {
					return v
				}
				return acc
			}},
		} {
			got := Reduce(tc.op, all)
			for i := range got {
				want := all[0][i]
				for _, v := range all[1:] {
					want = tc.fold(want, v[i]) // rank order, like the sum
				}
				if got[i] != want {
					t.Errorf("%s op=%d ranks=%d: element %d = %v, want %v", name, tc.op, ranks, i, got[i], want)
				}
			}
			got[0]++ // the result must be a fresh slice, not rank 0's
			for i := range first {
				if all[0][i] != first[i] {
					t.Fatalf("%s op=%d ranks=%d: Reduce wrote into rank 0's input", name, tc.op, ranks)
				}
			}
		}
	}
}

// TestReduce covers the one reduction both drivers use — the simulated
// Allreduce (this package) and rank 0's fold in the TCP transport's mesh
// collective (internal/cluster) — for both element types, and its contract on ragged
// input.
func TestReduce(t *testing.T) {
	reduceCase(t, "int64", func(rng *rand.Rand) int64 { return int64(rng.Intn(1000) - 500) })
	reduceCase(t, "float64", func(rng *rand.Rand) float64 { return rng.NormFloat64() })

	defer func() {
		if recover() == nil {
			t.Error("Reduce over vectors of different lengths must panic")
		}
	}()
	Reduce(OpSum, [][]int64{{1, 2}, {1, 2}, {1}})
}

func TestCollectiveSynchronizesClocks(t *testing.T) {
	comms := Run(3, fastMachine(), func(c *Comm) {
		// Rank 2 does extra modeled work before the collective.
		if c.Rank() == 2 {
			c.AdvanceClock(time.Second)
		}
		c.AllreduceInt64(OpSum, []int64{1})
		if c.Elapsed() < time.Second {
			t.Errorf("rank %d: collective exit before slowest entrant: %v", c.Rank(), c.Elapsed())
		}
	})
	if MaxElapsed(comms) < time.Second {
		t.Error("max elapsed must include modeled work")
	}
}

func TestVirtualClockAdvancesWithMessageSize(t *testing.T) {
	m := Machine{Latency: time.Millisecond, Bandwidth: 1e6} // 1 MB/s
	comms := Run(2, m, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendFloat64s(1, 0, make([]float64, 125000)) // 1 MB => 1 s wire time
		} else {
			c.RecvFloat64s(0, 0)
		}
	})
	// The receiver's clock must reflect wire time + latency.
	if got := comms[1].Elapsed(); got < time.Second {
		t.Errorf("receiver clock %v, want >= 1s of transfer time", got)
	}
	if comms[0].BytesSent() != 1000000 {
		t.Errorf("sender bytes %d", comms[0].BytesSent())
	}
	if comms[1].BytesRecv() != 1000000 {
		t.Errorf("receiver bytes %d", comms[1].BytesRecv())
	}
}

func TestCommTimeSeparatesFromCompute(t *testing.T) {
	comms := Run(2, fastMachine(), func(c *Comm) {
		// Busy-work ~ a few ms of real compute.
		s := 0.0
		for i := 0; i < 2_000_000; i++ {
			s += float64(i % 7)
		}
		_ = s
		c.AllreduceInt64(OpSum, []int64{1})
	})
	for _, c := range comms {
		if c.Elapsed() <= c.CommTime() {
			t.Errorf("rank: compute time missing: total %v comm %v", c.Elapsed(), c.CommTime())
		}
	}
}

func TestManyToOneGatherPattern(t *testing.T) {
	// The owner-gather of Algorithm 1: every rank sends to rank 0.
	const size = 6
	Run(size, fastMachine(), func(c *Comm) {
		if c.Rank() == 0 {
			sum := 0.0
			for src := 1; src < size; src++ {
				v := c.RecvFloat64s(src, 5)
				sum += v[0]
			}
			if sum != float64((size-1)*size/2) {
				t.Errorf("gather sum %v", sum)
			}
		} else {
			c.SendFloat64s(0, 5, []float64{float64(c.Rank())})
		}
	})
}

func TestDeterministicAccounting(t *testing.T) {
	// Virtual clocks meter real compute, so they jitter at the ns level;
	// the communication *volumes* must be exactly reproducible.
	run := func() ([]int64, []int64) {
		comms := Run(4, DefaultMachine(), func(c *Comm) {
			right := (c.Rank() + 1) % 4
			left := (c.Rank() + 3) % 4
			c.SendFloat64s(right, 0, make([]float64, 100))
			c.RecvFloat64s(left, 0)
			c.AllreduceInt64(OpSum, []int64{1})
		})
		bytes := make([]int64, 4)
		msgs := make([]int64, 4)
		for i, c := range comms {
			bytes[i] = c.BytesSent()
			msgs[i] = c.Messages()
			if c.CommTime() <= 0 {
				t.Errorf("rank %d: no communication time recorded", i)
			}
		}
		return bytes, msgs
	}
	b1, m1 := run()
	b2, m2 := run()
	for i := range b1 {
		if b1[i] != b2[i] || m1[i] != m2[i] {
			t.Errorf("volumes not deterministic: %v/%v vs %v/%v", b1, m1, b2, m2)
		}
		if b1[i] != 800 {
			t.Errorf("rank %d sent %d bytes, want 800", i, b1[i])
		}
	}
}

func TestSingleRank(t *testing.T) {
	comms := Run(1, fastMachine(), func(c *Comm) {
		got := c.AllreduceInt64(OpSum, []int64{42})
		if got[0] != 42 {
			t.Errorf("self allreduce %v", got)
		}
	})
	if comms[0].Size() != 1 {
		t.Error("size must be 1")
	}
}

func TestValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run(0) must panic")
		}
	}()
	Run(0, fastMachine(), func(*Comm) {})
}

func TestRankPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rank panic must propagate")
		}
	}()
	Run(2, fastMachine(), func(c *Comm) {
		// No cross-rank dependency: both panic without blocking anyone.
		panic("boom")
	})
}

func TestSendValidation(t *testing.T) {
	Run(1, fastMachine(), func(c *Comm) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range destination must panic")
			}
		}()
		c.SendFloat64s(5, 0, nil)
	})
}
