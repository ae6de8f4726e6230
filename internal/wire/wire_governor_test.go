package wire

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vexdb/internal/core"
	"vexdb/internal/engine"
	"vexdb/internal/governor"
	"vexdb/internal/vector"
)

// govServer is bigServer with a governor attached before the listener
// starts (setting engine fields once a server is serving would race
// with connection goroutines reading them).
func govServer(t *testing.T, rows, workers int, cfg governor.Config, configure func(*engine.DB)) (*engine.DB, *Server, string) {
	t.Helper()
	db := bigDB(t, rows, workers)
	db.Gov = governor.New(cfg)
	if configure != nil {
		configure(db)
	}
	srv, addr := serve(t, db)
	return db, srv, addr
}

// waitNoLeaks polls until the governor of a govServer holds no
// admitted query — every stream closed and released its ticket — and
// the goroutine count is back near the baseline.
func waitNoLeaks(t *testing.T, srv *Server, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		active := srv.db.Gov.Stats().Active
		if active == 0 && runtime.NumGoroutine() <= baseline+4 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak: %d queries active, %d goroutines (baseline %d)",
				active, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDisconnectStorm: many clients connect, start a large query, and
// drop mid-stream. The session registry must release every stream,
// session, and goroutine (run with -race to exercise the registry).
func TestDisconnectStorm(t *testing.T) {
	before := runtime.NumGoroutine()
	_, srv, addr := govServer(t, 200_000, 4, governor.Config{
		PoolBytes: 64 << 20, MaxActive: 8, MaxQueued: 256,
	}, nil)
	const clients = 100
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				return // accept backlog overflow under storm is fine
			}
			st, err := c.Stream(Columnar, "SELECT id, pad FROM big")
			if err != nil {
				c.Close()
				return
			}
			st.Next() // one chunk, then drop the connection abruptly
			c.Close()
		}()
	}
	wg.Wait()
	waitNoLeaks(t, srv, before)
}

// TestOverloadTypedRejection: with MaxActive=1 and an empty queue, a
// second concurrent query must be rejected with the typed retryable
// error while the first still streams, and the rejected connection
// must remain usable.
func TestOverloadTypedRejection(t *testing.T) {
	db, _, addr := govServer(t, 200_000, 2, governor.Config{
		MaxActive: 1, MaxQueued: 1, RetryAfter: 50 * time.Millisecond,
	}, nil)
	c1 := dial(t, addr)
	st1, err := c1.Stream(Columnar, "SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st1.Next(); err != nil {
		t.Fatal(err)
	}

	// Fill the one queue slot with a waiter that holds it.
	c2 := dial(t, addr)
	queuedErr := make(chan error, 1)
	go func() {
		st, err := c2.Stream(Columnar, "SELECT count(*) AS n FROM big")
		if err == nil {
			err = st.Close()
		}
		queuedErr <- err
	}()
	// Wait until it occupies the single queue slot.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if db.Gov.Stats().Queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Third query: queue full -> typed rejection.
	c3 := dial(t, addr)
	var ov *governor.OverloadedError
	_, err = c3.Stream(Columnar, "SELECT count(*) AS n FROM big")
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want *governor.OverloadedError", err)
	}
	if ov.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", ov.RetryAfter)
	}
	// The rejected connection must still serve requests once load
	// clears.
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued query: %v", err)
	}
	tab, err := c3.Query(Columnar, "SELECT count(*) AS n FROM big")
	if err != nil {
		t.Fatalf("rejected connection unusable: %v", err)
	}
	if tab.NumRows() != 1 {
		t.Fatalf("got %d rows", tab.NumRows())
	}
}

// TestClientCancelMidStream: Cancel from another goroutine terminates
// the query with ErrQueryCancelled and keeps the connection usable.
func TestClientCancelMidStream(t *testing.T) {
	_, _, addr := govServer(t, 400_000, 4, governor.Config{MaxActive: 4}, nil)
	c := dial(t, addr)
	st, err := c.Stream(Columnar, "SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(); err != nil {
		t.Fatal(err)
	}
	var got error
	for {
		ch, err := st.Next()
		if err != nil {
			got = err
			break
		}
		if ch == nil {
			break // finished racing the cancel; acceptable
		}
	}
	if got != nil && !errors.Is(got, ErrQueryCancelled) {
		t.Fatalf("err = %v, want ErrQueryCancelled", got)
	}
	// The connection survives the cancel.
	tab, err := c.Query(Columnar, "SELECT count(*) AS n FROM big")
	if err != nil {
		t.Fatalf("connection unusable after cancel: %v", err)
	}
	if tab.NumRows() != 1 {
		t.Fatalf("got %d rows", tab.NumRows())
	}
}

// TestOversizedRequestKeepsConnection: a request above the SQL size
// cap must be rejected in-band without desynchronizing the stream.
func TestOversizedRequestKeepsConnection(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	big := make([]byte, maxRequestSize+1)
	for i := range big {
		big[i] = ' '
	}
	_, err := c.Stream(Columnar, string(big))
	if err == nil {
		t.Fatal("oversized request accepted")
	}
	// Same connection, normal query.
	tab, err := c.Query(Columnar, "SELECT count(*) AS n FROM t")
	if err != nil {
		t.Fatalf("connection unusable after oversized request: %v", err)
	}
	if tab.NumRows() != 1 {
		t.Fatalf("got %d rows", tab.NumRows())
	}
}

// TestGracefulShutdownDrains: Shutdown must let an in-flight query
// stream to completion, close idle connections, and leave no
// goroutines behind.
func TestGracefulShutdownDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	_, srv, addr := govServer(t, 100_000, 2, governor.Config{MaxActive: 4}, nil)

	idle := dial(t, addr)
	if _, err := idle.Query(Columnar, "SELECT count(*) AS n FROM big"); err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr)
	st, err := c.Stream(Columnar, "SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	var rows int64
	first, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	rows += int64(first.NumRows())

	done := make(chan struct{})
	go func() {
		srv.Shutdown(30 * time.Second)
		close(done)
	}()
	// The in-flight stream must complete normally during the drain.
	for {
		ch, err := st.Next()
		if err != nil {
			t.Fatalf("drained stream broke: %v", err)
		}
		if ch == nil {
			break
		}
		rows += int64(ch.NumRows())
	}
	if rows != 100_000 {
		t.Fatalf("drained %d rows, want 100000", rows)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after streams drained")
	}
	waitNoLeaks(t, srv, before)
}

// registerNap adds nap(x) to db, a row-local UDF that returns x after
// sleeping perRow for every row it is handed and counts its calls.
func registerNap(t *testing.T, db *engine.DB, perRow time.Duration, calls *atomic.Int64) {
	t.Helper()
	err := db.Registry().RegisterScalar(&core.ScalarFunc{
		Name:       "nap",
		Arity:      1,
		ReturnType: core.FixedReturn(vector.Int64),
		Parallel:   true,
		Eval: func(args []*vector.Vector) (*vector.Vector, error) {
			calls.Add(1)
			time.Sleep(time.Duration(args[0].Len()) * perRow)
			return args[0], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQueryTimeoutOverWire: a deadline shorter than the query's
// runtime must terminate it with an in-band deadline error, keeping
// the connection usable.
func TestQueryTimeoutOverWire(t *testing.T) {
	var calls atomic.Int64
	_, _, addr := govServer(t, 400_000, 2, governor.Config{MaxActive: 4},
		func(db *engine.DB) {
			registerNap(t, db, 5*time.Microsecond, &calls)
			db.QueryTimeout = 30 * time.Millisecond
		})
	c := dial(t, addr)
	// nap sleeps ~2 s over 400k rows, far past the deadline.
	st, err := c.Stream(Columnar, "SELECT nap(id) AS id, pad FROM big")
	var got error
	if err != nil {
		got = err
	} else {
		for {
			ch, nerr := st.Next()
			if nerr != nil {
				got = nerr
				break
			}
			if ch == nil {
				break
			}
		}
	}
	if got == nil || !strings.Contains(got.Error(), engine.ErrQueryTimeout.Error()) {
		t.Fatalf("err = %v, want deadline error", got)
	}
	// Deadline errors are per-query; the connection stays usable for
	// queries that fit the deadline.
	tab, err := c.Query(Columnar, "SELECT 1 AS n")
	if err != nil {
		t.Fatalf("connection unusable after deadline: %v", err)
	}
	if tab.NumRows() != 1 {
		t.Fatalf("got %d rows", tab.NumRows())
	}
}

// queuedStreamer is a connection whose query waits behind a holder
// that occupies a MaxActive: 1 governor mid-stream.
type queuedStreamer struct {
	db     *engine.DB
	holder *ResultStream
	c      *Client
	errc   chan error // the queued query's Stream error
}

// queueBehindHolder starts a holder streaming a large result, reads
// one chunk of it, and sends a second connection's query, returning
// once the governor shows it queued.
func queueBehindHolder(t *testing.T) *queuedStreamer {
	t.Helper()
	db, _, addr := govServer(t, 200_000, 2, governor.Config{MaxActive: 1}, nil)
	h := dial(t, addr)
	t.Cleanup(func() { h.Close() })
	holder, err := h.Stream(Columnar, "SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Next(); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	t.Cleanup(func() { c.Close() })
	q := &queuedStreamer{db: db, holder: holder, c: c, errc: make(chan error, 1)}
	go func() {
		_, err := c.Stream(Columnar, "SELECT count(*) AS n FROM big")
		q.errc <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); db.Gov.Stats().Queued != 1; {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return q
}

// leftQueue waits up to 2 s for the queue to empty and checks the
// holder still streams.
func (q *queuedStreamer) leftQueue(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); q.db.Gov.Stats().Queued != 0; {
		if time.Now().After(deadline) {
			t.Fatal("query still queued after 2s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := q.db.Gov.Stats(); st.Active != 1 {
		t.Fatalf("Active = %d, want the holder's 1", st.Active)
	}
	if ch, err := q.holder.Next(); err != nil || ch == nil {
		t.Fatalf("holder stopped streaming: %v %v", ch, err)
	}
}

// TestCancelWhileQueued: a client cancel reaches a query still waiting
// for admission; it leaves the queue and reports ErrQueryCancelled.
func TestCancelWhileQueued(t *testing.T) {
	q := queueBehindHolder(t)
	if err := q.c.Cancel(); err != nil {
		t.Fatal(err)
	}
	q.leftQueue(t)
	if err := <-q.errc; !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("err = %v, want ErrQueryCancelled", err)
	}
}

// TestDisconnectWhileQueued: a client that hangs up while its query
// waits for admission takes the query out of the queue.
func TestDisconnectWhileQueued(t *testing.T) {
	q := queueBehindHolder(t)
	q.c.Close()
	q.leftQueue(t)
}

// TestServerCloseDuringJoinBuild: Server.Close reaches a query still
// inside Open, where its hash join drains a build side that would take
// over a second (nap at 20 µs a row over 60 000 rows, ~40 ms a morsel).
func TestServerCloseDuringJoinBuild(t *testing.T) {
	var calls atomic.Int64
	_, srv, addr := govServer(t, 60_000, 1, governor.Config{MaxActive: 4},
		func(db *engine.DB) { registerNap(t, db, 20*time.Microsecond, &calls) })
	c := dial(t, addr)
	qerr := make(chan error, 1)
	go func() {
		_, err := c.Query(Columnar, "SELECT count(*) AS n FROM big a JOIN (SELECT id FROM big WHERE nap(id) >= 0) b ON a.id = b.id")
		qerr <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); calls.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the join never started its build")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	srv.Close()
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("Server.Close took %v during a join build, want under 200ms", elapsed)
	}
	if err := <-qerr; err == nil {
		t.Fatal("the join finished despite Server.Close")
	}
}
