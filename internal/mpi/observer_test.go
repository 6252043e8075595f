package mpi

import (
	"testing"
	"time"
)

// testMachine gives deterministic-enough comm costs for ledger checks.
func testMachine() Machine {
	return Machine{
		Latency:      10 * time.Microsecond,
		Bandwidth:    1e9,
		SendOverhead: time.Microsecond,
		RecvOverhead: time.Microsecond,
	}
}

func TestObserverPointToPoint(t *testing.T) {
	ledgers := make([][]Event, 2)
	Run(2, testMachine(), func(c *Comm) {
		rank := c.Rank()
		c.SetObserver(func(ev Event) { ledgers[rank] = append(ledgers[rank], ev) })
		if rank == 0 {
			c.SendFloat64s(1, 42, make([]float64, 100))
		} else {
			c.RecvFloat64s(0, 42)
		}
	})

	if len(ledgers[0]) != 1 || len(ledgers[1]) != 1 {
		t.Fatalf("ledger sizes = %d, %d; want 1 send and 1 recv", len(ledgers[0]), len(ledgers[1]))
	}
	send, recv := ledgers[0][0], ledgers[1][0]
	if send.Kind != EventSend || send.Rank != 0 || send.Peer != 1 || send.Tag != 42 || send.Bytes != 800 {
		t.Errorf("send event = %+v", send)
	}
	if send.DepRank != -1 {
		t.Errorf("send DepRank = %d, want -1 (sends never block)", send.DepRank)
	}
	if send.End <= send.Start {
		t.Errorf("send interval [%v,%v] not positive", send.Start, send.End)
	}
	if recv.Kind != EventRecv || recv.Rank != 1 || recv.Peer != 0 || recv.Tag != 42 || recv.Bytes != 800 {
		t.Errorf("recv event = %+v", recv)
	}
	if recv.Sent != send.Sent {
		t.Errorf("recv.Sent = %v, want the sender's enqueue time %v", recv.Sent, send.Sent)
	}
	// The payload is deliverable one latency after the sender's enqueue:
	// a receive that waited for it ends exactly one receive overhead
	// later, one that did not ends no earlier.
	arrived := send.Sent + testMachine().Latency + testMachine().RecvOverhead
	if recv.Wait > 0 {
		// A blocked receive must name its dependency: the sender at its
		// enqueue time.
		if recv.DepRank != 0 || recv.DepTime != send.Sent {
			t.Errorf("recv dep = (%d,%v), want (0,%v)", recv.DepRank, recv.DepTime, send.Sent)
		}
		if recv.End != arrived {
			t.Errorf("blocked recv ends at %v, want Sent+latency+overhead = %v", recv.End, arrived)
		}
	} else {
		if recv.DepRank != -1 {
			t.Errorf("unblocked recv DepRank = %d, want -1", recv.DepRank)
		}
		if recv.End < arrived {
			t.Errorf("unblocked recv ends at %v, before Sent+latency+overhead = %v", recv.End, arrived)
		}
	}
}

func TestObserverCollective(t *testing.T) {
	const P = 4
	ledgers := make([][]Event, P)
	Run(P, testMachine(), func(c *Comm) {
		rank := c.Rank()
		c.SetObserver(func(ev Event) { ledgers[rank] = append(ledgers[rank], ev) })
		c.AdvanceClock(time.Duration(rank+1) * time.Millisecond)
		c.AllreduceInt64(OpSum, []int64{1, 2, 3})
	})

	var exit time.Duration
	for r := 0; r < P; r++ {
		if len(ledgers[r]) != 1 {
			t.Fatalf("rank %d ledger has %d events, want 1 collective", r, len(ledgers[r]))
		}
		ev := ledgers[r][0]
		if ev.Kind != EventCollective || ev.Peer != -1 || ev.Bytes != 24 {
			t.Errorf("rank %d collective event = %+v", r, ev)
		}
		if ev.DepRank < 0 || ev.DepRank >= P {
			t.Errorf("rank %d DepRank = %d, want a rank (the last to enter)", r, ev.DepRank)
		}
		if ev.Wait != ev.End-ev.Start {
			t.Errorf("rank %d Wait = %v, want End-Start = %v", r, ev.Wait, ev.End-ev.Start)
		}
		if r == 0 {
			exit = ev.End
		} else if ev.End != exit {
			t.Errorf("rank %d exits at %v, rank 0 at %v; collectives exit together", r, ev.End, exit)
		}
		// The dependency's entry time cannot exceed the common exit.
		if ev.DepTime > exit {
			t.Errorf("rank %d DepTime %v after exit %v", r, ev.DepTime, exit)
		}
	}
}

func TestSetObserverNilRemoves(t *testing.T) {
	events := 0
	Run(2, testMachine(), func(c *Comm) {
		c.SetObserver(func(Event) { events++ })
		c.SetObserver(nil)
		if c.Rank() == 0 {
			c.SendFloat64s(1, 1, []float64{1})
		} else {
			c.RecvFloat64s(0, 1)
		}
	})
	if events != 0 {
		t.Errorf("removed observer still saw %d events", events)
	}
}
