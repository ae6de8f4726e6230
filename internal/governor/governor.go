// Package governor provides process-wide resource governance for a
// serving database: every mechanism below it (parallel executor,
// memory budget, spill) is per-query, so N concurrent queries would
// each claim all CPUs and their own budget and the process would
// over-commit instead of degrading. The governor sits between the
// session layer and the executor and hands each admitted query a
// Ticket — a lease on a slice of one shared memory pool and a bounded
// worker-slot pool — or makes it wait in a bounded FIFO queue, or
// rejects it with a typed retryable error when the queue is full.
//
// Invariants:
//
//   - The sum of outstanding memory leases never exceeds Config.PoolBytes.
//     Leases start at a fair share (PoolBytes/MaxActive) and may grow
//     into idle pool bytes via Ticket.TryGrow; admission reclaims grown
//     bytes back toward fair share before it would otherwise shrink a
//     newcomer's grant, so a grown query can never strand later ones.
//   - At most MaxActive tickets are outstanding; excess admissions
//     queue in arrival order and are granted strictly FIFO.
//   - Every granted ticket carries at least one worker: worker slots
//     bound the *extra* parallelism a query may claim, so admission
//     can never deadlock on an empty slot pool.
//
// The lease becomes the query's exec MemoryBudget, so an over-budget
// query degrades to spill exactly as a standalone one would — the
// governor changes who sets the number, not the spill machinery. The
// lease is read through an atomic watermark, which is also the shrink
// enforcement mechanism: lowering the watermark makes the query's next
// over-budget check fire, and spill takes it back under the new lease.
package governor

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Config sizes the governor. The zero value of any field selects its
// default; a zero PoolBytes disables memory leasing (queries run with
// the engine's own per-query budget, possibly unlimited).
type Config struct {
	// PoolBytes is the process-wide memory pool queries lease from.
	// Each admitted query leases PoolBytes/MaxActive (its exec memory
	// budget); 0 disables leasing.
	PoolBytes int64

	// WorkerSlots bounds the extra executor workers handed out across
	// all running queries (each query always gets one worker
	// regardless). 0 means runtime.NumCPU().
	WorkerSlots int

	// MaxActive bounds concurrently executing queries. 0 means
	// 2 × runtime.NumCPU().
	MaxActive int

	// MaxQueued bounds the admission queue; an admission arriving with
	// the queue full is rejected with a retryable OverloadedError.
	// 0 means 64.
	MaxQueued int

	// SessionMaxActive bounds one session's concurrently executing
	// queries; 0 means unlimited.
	SessionMaxActive int

	// SessionMaxMemory bounds one session's total leased bytes;
	// a query that would exceed it gets a smaller lease, or a
	// retryable rejection when nothing is left. 0 means unlimited.
	SessionMaxMemory int64

	// RetryAfter is the base client back-off hint carried by
	// OverloadedError; 0 means 250ms.
	RetryAfter time.Duration
}

func (c Config) maxActive() int {
	if c.MaxActive > 0 {
		return c.MaxActive
	}
	return 2 * runtime.NumCPU()
}

func (c Config) maxQueued() int {
	if c.MaxQueued > 0 {
		return c.MaxQueued
	}
	return 64
}

func (c Config) workerSlots() int {
	if c.WorkerSlots > 0 {
		return c.WorkerSlots
	}
	return runtime.NumCPU()
}

func (c Config) retryAfter() time.Duration {
	if c.RetryAfter > 0 {
		return c.RetryAfter
	}
	return 250 * time.Millisecond
}

// fairShare is the lease granted at admission (and the level reclaim
// shrinks grown tickets back toward).
func (c Config) fairShare() int64 {
	if c.PoolBytes <= 0 {
		return 0
	}
	fair := c.PoolBytes / int64(c.maxActive())
	if fair < 1 {
		fair = 1
	}
	return fair
}

// OverloadedError is the typed, retryable rejection: the server is
// healthy but saturated, and the client should back off RetryAfter
// before retrying. The wire layer maps it to a dedicated frame so
// remote clients receive the same type.
type OverloadedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("governor: overloaded (%s), retry after %v", e.Reason, e.RetryAfter)
}

// ErrQueueTimeout reports that an admission left the queue unadmitted,
// its wait expired or abandoned. It is not an overload rejection:
// retrying immediately would queue again behind the same backlog.
var ErrQueueTimeout = errors.New("governor: queue wait deadline exceeded")

// errSessionClosed guards against admissions on a closed session.
var errSessionClosed = errors.New("governor: session closed")

// Governor is the process-wide resource arbiter. One instance serves
// one engine; all methods are safe for concurrent use.
type Governor struct {
	cfg Config

	mu          sync.Mutex
	active      int
	leased      int64
	workersFree int
	queue       []*waiter
	draining    bool
	tickets     map[*Ticket]struct{} // outstanding, for the reclaim path

	// cumulative / peak counters for reports and tests
	admitted   int64
	rejected   int64
	timedOut   int64
	peakActive int
	peakQueued int
	peakLeased int64
	grows      int64
	grownBytes int64
	shrinks    int64
	shrunkByts int64
	reclaims   int64
}

// New creates a governor from cfg (zero fields take their defaults).
func New(cfg Config) *Governor {
	return &Governor{
		cfg:         cfg,
		workersFree: cfg.workerSlots(),
		tickets:     make(map[*Ticket]struct{}),
	}
}

// Session is one client's admission scope (per-connection in the wire
// server): per-session limits are enforced against it.
type Session struct {
	g      *Governor
	active int
	leased int64
	closed bool
}

// NewSession opens an admission scope.
func (g *Governor) NewSession() *Session { return &Session{g: g} }

// Close marks the session closed; further admissions through it fail.
// Outstanding tickets remain valid until released.
func (s *Session) Close() {
	s.g.mu.Lock()
	s.closed = true
	s.g.mu.Unlock()
}

// Ticket is one admitted query's resource lease. Release must be
// called exactly when the query finishes (it is idempotent).
//
// The memory lease is dynamic: it starts at the admission fair share,
// TryGrow raises it into idle pool bytes, and the governor's reclaim
// path lowers it back toward fair share under admission pressure. The
// current value lives in an atomic watermark so the executor's
// over-budget check observes a shrink without any locking.
type Ticket struct {
	g        *Governor
	sess     *Session
	initial  int64        // lease granted at admission (fair share)
	lease    atomic.Int64 // current lease watermark; exec reads this
	workers  int
	once     sync.Once
	released bool // guarded by g.mu; blocks TryGrow after Release
	grows    int  // guarded by g.mu
	shrinks  int  // guarded by g.mu
}

// MemoryBudget returns the bytes currently leased from the pool (0
// when the pool is disabled: no lease, caller falls back to its own
// budget). The value can change between calls: TryGrow raises it and
// a governor reclaim lowers it.
func (t *Ticket) MemoryBudget() int64 { return t.lease.Load() }

// InitialBudget returns the fair-share lease granted at admission.
func (t *Ticket) InitialBudget() int64 { return t.initial }

// Growths returns how many times TryGrow enlarged this lease and how
// many times a reclaim shrank it.
func (t *Ticket) Growths() (grows, shrinks int) {
	t.g.mu.Lock()
	defer t.g.mu.Unlock()
	return t.grows, t.shrinks
}

// Workers returns the granted executor parallelism (always ≥ 1).
func (t *Ticket) Workers() int { return t.workers }

// TryGrow asks for up to n more leased bytes and returns the ticket's
// new total lease. It grants min(n, idle pool bytes, session
// remaining) — possibly zero, in which case the lease is unchanged and
// the caller should go ahead and spill. Never blocks and never takes
// bytes from other tickets; only admission-side reclaim does that.
func (t *Ticket) TryGrow(n int64) int64 {
	g := t.g
	if n <= 0 || g.cfg.PoolBytes <= 0 {
		return t.lease.Load()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if t.released {
		return t.lease.Load()
	}
	grant := n
	if avail := g.cfg.PoolBytes - g.leased; grant > avail {
		grant = avail
	}
	if t.sess != nil && g.cfg.SessionMaxMemory > 0 {
		if rem := g.cfg.SessionMaxMemory - t.sess.leased; grant > rem {
			grant = rem
		}
	}
	if grant <= 0 {
		return t.lease.Load()
	}
	g.leased += grant
	if t.sess != nil {
		t.sess.leased += grant
	}
	if g.leased > g.peakLeased {
		g.peakLeased = g.leased
	}
	g.grows++
	g.grownBytes += grant
	t.grows++
	return t.lease.Add(grant)
}

// Release returns the lease to the pool and wakes the next queued
// admission. Idempotent.
func (t *Ticket) Release() {
	t.once.Do(func() {
		g := t.g
		g.mu.Lock()
		t.released = true
		lease := t.lease.Load()
		delete(g.tickets, t)
		g.active--
		g.leased -= lease
		g.workersFree += t.workers - 1
		if t.sess != nil {
			t.sess.active--
			t.sess.leased -= lease
		}
		g.dispatchLocked()
		g.mu.Unlock()
	})
}

type admitResult struct {
	ticket *Ticket
	err    error
}

type waiter struct {
	sess *Session
	want int
	ch   chan admitResult // buffered: dispatch never blocks
}

// Admit requests a ticket for one query wanting up to wantWorkers
// executor workers (0 means NumCPU). At MaxActive the call queues FIFO;
// wait bounds the queue time (0 = unbounded), and a closed done — the
// query's deadline or its cancellation — abandons the wait. Rejections
// (queue full, draining, session limits) are *OverloadedError; a wait
// that expires or is abandoned is ErrQueueTimeout, counted in TimedOut.
func (g *Governor) Admit(sess *Session, wantWorkers int, wait time.Duration, done <-chan struct{}) (*Ticket, error) {
	g.mu.Lock()
	if g.draining {
		g.rejected++
		g.mu.Unlock()
		return nil, &OverloadedError{Reason: "server draining", RetryAfter: g.cfg.retryAfter()}
	}
	if sess != nil && sess.closed {
		g.mu.Unlock()
		return nil, errSessionClosed
	}
	// Grant immediately only when no one is queued ahead: an empty
	// queue is what makes the fast path FIFO-safe.
	if g.active < g.cfg.maxActive() && len(g.queue) == 0 {
		t, err := g.grantLocked(sess, wantWorkers)
		g.mu.Unlock()
		return t, err
	}
	if len(g.queue) >= g.cfg.maxQueued() {
		g.rejected++
		g.mu.Unlock()
		// Scale the hint by queue depth: a full queue means real wait.
		return nil, &OverloadedError{Reason: "admission queue full", RetryAfter: 2 * g.cfg.retryAfter()}
	}
	w := &waiter{sess: sess, want: wantWorkers, ch: make(chan admitResult, 1)}
	g.queue = append(g.queue, w)
	if len(g.queue) > g.peakQueued {
		g.peakQueued = len(g.queue)
	}
	g.mu.Unlock()

	var timeout <-chan time.Time
	if wait > 0 {
		tm := time.NewTimer(wait)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case res := <-w.ch:
		return res.ticket, res.err
	case <-timeout:
	case <-done:
	}
	// Timed out (or abandoned) while queued. Removing ourselves races
	// with a concurrent grant: dispatch removes the waiter and sends
	// the result under the governor lock, so if the waiter is gone
	// from the queue the result is already in the (buffered) channel —
	// receive it and return the ticket so the lease is not stranded.
	g.mu.Lock()
	for i, q := range g.queue {
		if q == w {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			g.timedOut++
			g.mu.Unlock()
			return nil, ErrQueueTimeout
		}
	}
	g.mu.Unlock()
	res := <-w.ch
	if res.ticket != nil {
		res.ticket.Release()
	}
	return nil, ErrQueueTimeout
}

// grantLocked builds a ticket for one admission. Session limits are
// re-checked here (not only at Admit entry) because a session's other
// queries may have been admitted while this one queued.
func (g *Governor) grantLocked(sess *Session, wantWorkers int) (*Ticket, error) {
	if sess != nil && g.cfg.SessionMaxActive > 0 && sess.active >= g.cfg.SessionMaxActive {
		g.rejected++
		return nil, &OverloadedError{Reason: "session concurrent-query limit", RetryAfter: g.cfg.retryAfter()}
	}
	var budget int64
	if g.cfg.PoolBytes > 0 {
		budget = g.cfg.fairShare()
		if avail := g.cfg.PoolBytes - g.leased; budget > avail {
			// Grown tickets are holding the newcomer's fair share.
			// Reclaim shrinks them back toward fair share — always
			// recoverable, because every grown byte sits above fair
			// share and at most maxActive-1 tickets are outstanding.
			g.reclaimLocked(budget - avail)
			if avail = g.cfg.PoolBytes - g.leased; budget > avail {
				budget = avail
			}
		}
		if budget < 1 {
			budget = 1
		}
		if sess != nil && g.cfg.SessionMaxMemory > 0 {
			rem := g.cfg.SessionMaxMemory - sess.leased
			if rem <= 0 {
				g.rejected++
				return nil, &OverloadedError{Reason: "session memory limit", RetryAfter: g.cfg.retryAfter()}
			}
			if budget > rem {
				budget = rem
			}
		}
	}
	want := wantWorkers
	if want <= 0 {
		want = runtime.NumCPU()
	}
	extra := want - 1
	if extra > g.workersFree {
		extra = g.workersFree
	}
	g.workersFree -= extra

	g.active++
	g.leased += budget
	if sess != nil {
		sess.active++
		sess.leased += budget
	}
	g.admitted++
	if g.active > g.peakActive {
		g.peakActive = g.active
	}
	if g.leased > g.peakLeased {
		g.peakLeased = g.leased
	}
	t := &Ticket{g: g, sess: sess, initial: budget, workers: 1 + extra}
	t.lease.Store(budget)
	g.tickets[t] = struct{}{}
	return t, nil
}

// reclaimLocked shrinks grown tickets back toward their fair share
// until `need` bytes are idle again, largest excess first. The shrink
// lowers each victim's atomic lease watermark; the query's next
// over-budget check observes the smaller lease and spills, which is
// the enforcement mechanism — nothing blocks here.
func (g *Governor) reclaimLocked(need int64) {
	if need <= 0 {
		return
	}
	fair := g.cfg.fairShare()
	ran := false
	for need > 0 {
		var victim *Ticket
		var excess int64
		for t := range g.tickets {
			if e := t.lease.Load() - fair; e > excess {
				victim, excess = t, e
			}
		}
		if victim == nil {
			break
		}
		cut := excess
		if cut > need {
			cut = need
		}
		victim.lease.Add(-cut)
		victim.shrinks++
		g.leased -= cut
		if victim.sess != nil {
			victim.sess.leased -= cut
		}
		g.shrinks++
		g.shrunkByts += cut
		need -= cut
		ran = true
	}
	if ran {
		g.reclaims++
	}
}

// dispatchLocked grants queued admissions in FIFO order while
// capacity lasts. A waiter whose session limit is now exceeded gets
// its rejection here without consuming capacity.
func (g *Governor) dispatchLocked() {
	for g.active < g.cfg.maxActive() && len(g.queue) > 0 {
		w := g.queue[0]
		g.queue = g.queue[1:]
		t, err := g.grantLocked(w.sess, w.want)
		w.ch <- admitResult{ticket: t, err: err}
	}
}

// SetDraining rejects all future admissions and flushes the queue
// with retryable "server draining" errors. In-flight tickets are
// unaffected; the caller waits for them separately.
func (g *Governor) SetDraining() {
	g.mu.Lock()
	g.draining = true
	q := g.queue
	g.queue = nil
	for _, w := range q {
		g.rejected++
		w.ch <- admitResult{err: &OverloadedError{Reason: "server draining", RetryAfter: g.cfg.retryAfter()}}
	}
	g.mu.Unlock()
}

// Stats is a snapshot of the governor's gauges and counters.
type Stats struct {
	Active      int   // currently executing queries
	Queued      int   // currently waiting admissions
	LeasedBytes int64 // currently leased pool bytes

	Admitted int64 // tickets granted since start
	Rejected int64 // overload rejections since start
	TimedOut int64 // queued waits expired or abandoned via done since start

	PeakActive      int   // high-water concurrent queries
	PeakQueued      int   // high-water queue depth
	PeakLeasedBytes int64 // high-water leased bytes (≤ PoolBytes always)

	PoolBytes   int64 // configured pool size (0 = leasing disabled)
	Grows       int64 // successful TryGrow grants since start
	GrownBytes  int64 // total bytes granted by TryGrow since start
	Shrinks     int64 // tickets shrunk by reclaim since start
	ShrunkBytes int64 // total bytes taken back by reclaim since start
	Reclaims    int64 // reclaim passes that shrank at least one ticket

	Utilization     float64 // LeasedBytes / PoolBytes (0 when disabled)
	PeakUtilization float64 // PeakLeasedBytes / PoolBytes
}

// Stats returns a consistent snapshot.
func (g *Governor) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := Stats{
		Active:          g.active,
		Queued:          len(g.queue),
		LeasedBytes:     g.leased,
		Admitted:        g.admitted,
		Rejected:        g.rejected,
		TimedOut:        g.timedOut,
		PeakActive:      g.peakActive,
		PeakQueued:      g.peakQueued,
		PeakLeasedBytes: g.peakLeased,
		PoolBytes:       g.cfg.PoolBytes,
		Grows:           g.grows,
		GrownBytes:      g.grownBytes,
		Shrinks:         g.shrinks,
		ShrunkBytes:     g.shrunkByts,
		Reclaims:        g.reclaims,
	}
	if g.cfg.PoolBytes > 0 {
		s.Utilization = float64(g.leased) / float64(g.cfg.PoolBytes)
		s.PeakUtilization = float64(g.peakLeased) / float64(g.cfg.PoolBytes)
	}
	return s
}

// Config returns the governor's effective configuration.
func (g *Governor) Config() Config { return g.cfg }
