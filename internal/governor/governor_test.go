package governor

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

func mustAdmit(t *testing.T, g *Governor, sess *Session) *Ticket {
	t.Helper()
	tk, err := g.Admit(sess, 1, 0, nil)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	return tk
}

func TestImmediateAdmission(t *testing.T) {
	g := New(Config{PoolBytes: 1000, MaxActive: 4, WorkerSlots: 8})
	tk := mustAdmit(t, g, nil)
	if tk.MemoryBudget() != 250 {
		t.Fatalf("budget = %d, want fair share 250", tk.MemoryBudget())
	}
	if tk.Workers() != 1 {
		t.Fatalf("workers = %d, want 1 (asked for 1)", tk.Workers())
	}
	tk.Release()
	tk.Release() // idempotent
	if st := g.Stats(); st.Active != 0 || st.LeasedBytes != 0 {
		t.Fatalf("after release: %+v", st)
	}
}

func TestWorkerSlotsBoundExtras(t *testing.T) {
	g := New(Config{MaxActive: 4, WorkerSlots: 4})
	a, _ := g.Admit(nil, 3, 0, nil) // takes 2 extra
	b, _ := g.Admit(nil, 8, 0, nil) // 2 slots left
	c, _ := g.Admit(nil, 8, 0, nil) // pool empty: still gets 1 worker
	if a.Workers() != 3 || b.Workers() != 3 || c.Workers() != 1 {
		t.Fatalf("workers = %d/%d/%d, want 3/3/1", a.Workers(), b.Workers(), c.Workers())
	}
	a.Release()
	d, _ := g.Admit(nil, 8, 0, nil)
	if d.Workers() != 3 {
		t.Fatalf("after release workers = %d, want 3 (2 slots returned)", d.Workers())
	}
}

func TestQueueFIFOFairness(t *testing.T) {
	g := New(Config{MaxActive: 1, MaxQueued: 8})
	first := mustAdmit(t, g, nil)

	const n = 5
	order := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		// Serialize enqueue so arrival order is deterministic.
		started := make(chan struct{})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			close(started)
			tk, err := g.Admit(nil, 1, 0, nil)
			if err != nil {
				t.Errorf("queued admit %d: %v", i, err)
				return
			}
			order <- i
			tk.Release()
		}(i)
		<-started
		// Wait until the waiter is actually queued before starting the
		// next, so FIFO order is the goroutine start order.
		deadline := time.Now().Add(5 * time.Second)
		for g.Stats().Queued != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	first.Release()
	wg.Wait()
	close(order)
	i := 0
	for got := range order {
		if got != i {
			t.Fatalf("grant order[%d] = %d, want FIFO", i, got)
		}
		i++
	}
}

func TestQueueFullRejectionTyped(t *testing.T) {
	g := New(Config{MaxActive: 1, MaxQueued: 1, RetryAfter: 100 * time.Millisecond})
	tk := mustAdmit(t, g, nil)
	defer tk.Release()

	queued := make(chan struct{})
	go func() {
		close(queued)
		t2, err := g.Admit(nil, 1, 0, nil)
		if err == nil {
			t2.Release()
		}
	}()
	<-queued
	for g.Stats().Queued != 1 {
		time.Sleep(time.Millisecond)
	}
	_, err := g.Admit(nil, 1, 0, nil)
	var ov *OverloadedError
	if !errors.As(err, &ov) {
		t.Fatalf("queue-full error = %v, want *OverloadedError", err)
	}
	if ov.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", ov.RetryAfter)
	}
	if g.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
	tk.Release()
}

func TestDeadlineExpiryWhileQueued(t *testing.T) {
	g := New(Config{MaxActive: 1, MaxQueued: 4})
	tk := mustAdmit(t, g, nil)

	_, err := g.Admit(nil, 1, 30*time.Millisecond, nil)
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
	if st := g.Stats(); st.Queued != 0 {
		t.Fatalf("expired waiter still queued: %+v", st)
	}
	// The head slot must still be grantable to the next arrival.
	tk.Release()
	next := mustAdmit(t, g, nil)
	next.Release()
	if g.Stats().TimedOut != 1 {
		t.Fatalf("timeout not counted: %+v", g.Stats())
	}
}

func TestDoneChannelAbandonsWait(t *testing.T) {
	g := New(Config{MaxActive: 1, MaxQueued: 4})
	tk := mustAdmit(t, g, nil)
	defer tk.Release()
	done := make(chan struct{})
	close(done)
	if _, err := g.Admit(nil, 1, 0, done); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
}

func TestLeasedNeverExceedsPool(t *testing.T) {
	const pool = 1 << 20
	g := New(Config{PoolBytes: pool, MaxActive: 3, MaxQueued: 64})
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				tk, err := g.Admit(nil, 2, 0, nil)
				if err != nil {
					continue
				}
				if l := g.Stats().LeasedBytes; l > pool {
					t.Errorf("leased %d exceeds pool %d", l, pool)
				}
				tk.Release()
			}
		}()
	}
	wg.Wait()
	st := g.Stats()
	if st.PeakLeasedBytes > pool {
		t.Fatalf("peak leased %d exceeds pool %d", st.PeakLeasedBytes, pool)
	}
	if st.LeasedBytes != 0 || st.Active != 0 {
		t.Fatalf("not drained: %+v", st)
	}
}

func TestSessionLimits(t *testing.T) {
	g := New(Config{PoolBytes: 4000, MaxActive: 4, SessionMaxActive: 2, SessionMaxMemory: 1500})
	s := g.NewSession()
	a := mustAdmit(t, g, s) // lease 1000
	b, err := g.Admit(s, 1, 0, nil)
	if err != nil {
		t.Fatalf("second admit: %v", err)
	}
	if b.MemoryBudget() != 500 {
		t.Fatalf("second lease = %d, want clipped 500", b.MemoryBudget())
	}
	if _, err := g.Admit(s, 1, 0, nil); err == nil {
		t.Fatal("third concurrent query admitted past SessionMaxActive")
	} else {
		var ov *OverloadedError
		if !errors.As(err, &ov) {
			t.Fatalf("session-limit error = %v, want *OverloadedError", err)
		}
	}
	a.Release()
	b.Release()
	s.Close()
	if _, err := g.Admit(s, 1, 0, nil); err == nil {
		t.Fatal("admitted on closed session")
	}
}

func TestDrainingRejectsAndFlushesQueue(t *testing.T) {
	g := New(Config{MaxActive: 1, MaxQueued: 4, RetryAfter: time.Millisecond})
	tk := mustAdmit(t, g, nil)

	errC := make(chan error, 1)
	go func() {
		_, err := g.Admit(nil, 1, 0, nil)
		errC <- err
	}()
	for g.Stats().Queued != 1 {
		time.Sleep(time.Millisecond)
	}
	g.SetDraining()
	var ov *OverloadedError
	if err := <-errC; !errors.As(err, &ov) {
		t.Fatalf("flushed waiter error = %v, want *OverloadedError", err)
	}
	if _, err := g.Admit(nil, 1, 0, nil); !errors.As(err, &ov) {
		t.Fatalf("post-drain admit error = %v, want *OverloadedError", err)
	}
	tk.Release()
}

// TestTryGrowAndReclaim pins the adaptive-lease protocol: TryGrow
// extends a lease into idle pool bytes, and the next admission that
// would otherwise be starved reclaims the excess back toward fair
// share — never below it, and never breaching the pool.
func TestTryGrowAndReclaim(t *testing.T) {
	g := New(Config{PoolBytes: 1000, MaxActive: 4})
	a := mustAdmit(t, g, nil) // fair share 250
	if got := a.TryGrow(2000); got != 1000 {
		t.Fatalf("grow into idle pool: lease = %d, want 1000 (capped at pool)", got)
	}
	if a.MemoryBudget() != 1000 || a.InitialBudget() != 250 {
		t.Fatalf("lease/initial = %d/%d, want 1000/250", a.MemoryBudget(), a.InitialBudget())
	}

	// Admission under pressure shrinks the grown ticket, not to zero
	// but toward fair share, and funds the newcomer's full lease.
	b := mustAdmit(t, g, nil)
	if b.MemoryBudget() != 250 {
		t.Fatalf("newcomer lease = %d, want fair share 250", b.MemoryBudget())
	}
	if a.MemoryBudget() != 750 {
		t.Fatalf("victim lease = %d, want 750 (shrunk by newcomer's 250)", a.MemoryBudget())
	}
	grows, shrinks := a.Growths()
	if grows != 1 || shrinks != 1 {
		t.Fatalf("ticket growths = %d/%d, want 1/1", grows, shrinks)
	}
	st := g.Stats()
	if st.Grows != 1 || st.GrownBytes != 750 || st.Shrinks != 1 || st.ShrunkBytes != 250 || st.Reclaims != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LeasedBytes != 1000 || st.PeakLeasedBytes != 1000 || st.Utilization != 1.0 {
		t.Fatalf("pool accounting: %+v", st)
	}

	a.Release()
	b.Release()
	if st := g.Stats(); st.LeasedBytes != 0 || st.Active != 0 {
		t.Fatalf("stranded bytes after release: %+v", st)
	}

	// Session ceilings still bound grows.
	gs := New(Config{PoolBytes: 4000, MaxActive: 4, SessionMaxMemory: 1500})
	sess := gs.NewSession()
	c := mustAdmit(t, gs, sess) // lease 1000
	if got := c.TryGrow(4000); got != 1500 {
		t.Fatalf("session-capped grow: lease = %d, want 1500", got)
	}
	c.Release()
}

// TestAdaptiveLeaseChurn storms the governor with concurrent
// admit/grow/release cycles (run under -race in CI) and asserts the
// pool invariants hold throughout: leased bytes never exceed the pool
// even at peak, grow and shrink traffic actually happened, and no
// bytes are stranded once every ticket is released.
func TestAdaptiveLeaseChurn(t *testing.T) {
	const pool = 1 << 20
	g := New(Config{PoolBytes: pool, MaxActive: 8, MaxQueued: 256, WorkerSlots: 16})

	var wg sync.WaitGroup
	for id := 0; id < 16; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tk, err := g.Admit(nil, 1+id%4, 5*time.Second, nil)
				if err != nil {
					t.Errorf("churn admit: %v", err)
					return
				}
				// Deterministic pseudo-random grow sizes, many of them
				// large enough to swallow the whole idle pool.
				n := int64((id*7919+i*104729)%pool) + 1
				if lease := tk.TryGrow(n); lease > pool {
					t.Errorf("lease %d exceeds pool %d", lease, pool)
				}
				// Hold the grown lease across a yield so other
				// goroutines admit against it and trigger reclaims.
				runtime.Gosched()
				if tk.MemoryBudget() < 1 {
					t.Errorf("lease shrunk below minimum: %d", tk.MemoryBudget())
				}
				tk.Release()
			}
		}(id)
	}
	wg.Wait()

	st := g.Stats()
	if st.PeakLeasedBytes > pool {
		t.Fatalf("peak leased %d exceeds pool %d", st.PeakLeasedBytes, pool)
	}
	if st.Grows == 0 || st.Shrinks == 0 {
		t.Fatalf("churn exercised no grow/shrink traffic: %+v", st)
	}
	if st.LeasedBytes != 0 || st.Active != 0 || st.Queued != 0 {
		t.Fatalf("stranded state after churn: %+v", st)
	}
	if st.PeakUtilization <= 0 || st.PeakUtilization > 1 {
		t.Fatalf("peak utilization %v outside (0,1]", st.PeakUtilization)
	}
}
