package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vexdb/internal/engine"
	"vexdb/internal/governor"
	"vexdb/internal/vector"
)

// ErrQueryCancelled reports a query abandoned by a client-initiated
// cancel request. The server cancels the request's context with it as
// the cause, so its message travels the error frame verbatim and the
// client reconstructs the sentinel for errors.Is.
var ErrQueryCancelled = errors.New("wire: query cancelled by client")

// Server exposes an engine over TCP. Each connection handles a
// sequence of requests; one goroutine per connection plus a reader
// goroutine that keeps consuming control requests (cancel) while a
// result streams. Results are streamed chunk by chunk straight from
// the executor, so serving a huge result holds O(chunk size × workers)
// memory. Every request runs under its own context, a child of its
// connection's, which is a child of the server's: a client cancel, a
// client that hangs up and a server Close each cancel one of them, and
// the query stops wherever it is — queued for admission, opening or
// streaming. Each connection holds one engine session: SET and SHOW
// travel as ordinary requests and change or read that connection's
// settings alone, and when the database has a governor its per-session
// limits are per-connection.
type Server struct {
	db *engine.DB
	ln net.Listener

	ctx    context.Context // parent of every request's context
	cancel context.CancelFunc

	mu       sync.Mutex
	closed   bool
	draining bool
	conns    map[net.Conn]*connState
	wg       sync.WaitGroup
}

// connState is one connection's serving state, shared between its
// serve loop and the server's Shutdown.
type connState struct {
	sess    *engine.Session
	serving atomic.Bool // a request is being served right now
}

// NewServer wraps a database for network serving.
func NewServer(db *engine.DB) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{db: db, ctx: ctx, cancel: cancel, conns: make(map[net.Conn]*connState)}
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// serves in the background. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: listen: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		st := &connState{sess: s.db.NewSession()}
		s.conns[conn] = st
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn, st)
			st.sess.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// connRequest is one item handed from a connection's reader goroutine
// to its serve loop: a query under its own context, or an oversized
// request the reader discarded (err).
type connRequest struct {
	ctx    context.Context // the request's context; cancel ends it
	cancel context.CancelCauseFunc
	proto  Protocol
	query  string
	err    error
}

func (s *Server) serveConn(conn net.Conn, st *connState) {
	defer conn.Close()
	// connCtx ends when the serve loop exits, the reader sees the
	// client hang up, or the server closes.
	connCtx, hangUp := context.WithCancel(s.ctx)
	defer hangUp()
	// A dedicated reader keeps consuming requests while the serve loop
	// streams a result, so a cancel control request takes effect
	// mid-stream — or while the query still waits for admission. It
	// creates each request's context, so a cancel targets the last
	// request read (a no-op once that one has finished). Regular
	// requests are handed over one at a time, in order; the reader
	// closes reqC when it stops, and stops once connCtx ends rather
	// than block on the handoff.
	reqC := make(chan connRequest, 1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(reqC)
		br := bufio.NewReaderSize(conn, 1<<16)
		cancelLast := context.CancelCauseFunc(func(error) {})
		for {
			proto, query, err := readRequest(br)
			var req connRequest
			var tl *requestTooLargeError
			switch {
			case errors.As(err, &tl):
				req.err = err
			case err != nil:
				hangUp() // client hung up or sent garbage: stop its query
				return
			case proto == protoCancel:
				cancelLast(ErrQueryCancelled)
				continue
			default:
				req.ctx, req.cancel = context.WithCancelCause(connCtx)
				req.proto, req.query, cancelLast = proto, query, req.cancel
			}
			select {
			case reqC <- req:
			case <-connCtx.Done():
				return // a request not handed over ended with connCtx
			}
		}
	}()

	bw := bufio.NewWriterSize(conn, 1<<18)
	var scratch bytes.Buffer
	for {
		req, ok := <-reqC
		if !ok {
			return
		}
		if req.err != nil {
			// Oversized request: the reader discarded the payload, so
			// reject in-band and keep serving.
			if writeErrorFrame(bw, req.err) != nil || bw.Flush() != nil {
				return
			}
			continue
		}
		st.serving.Store(true)
		err := s.serveQuery(req.ctx, bw, &scratch, st.sess, req.proto, req.query)
		req.cancel(nil)
		st.serving.Store(false)
		if err != nil {
			return // connection-level write failure
		}
		if bw.Flush() != nil {
			return
		}
		if s.isDraining() {
			return // finish the current request, then bow out
		}
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.closed
}

// serveQuery executes one request and streams its response frames.
// Statement failures become error frames and return nil (the
// connection stays usable); a non-nil return means the connection
// itself is broken.
func (s *Server) serveQuery(ctx context.Context, bw *bufio.Writer, scratch *bytes.Buffer, sess *engine.Session, proto Protocol, query string) error {
	switch proto {
	case TextRows, BinaryRows, Columnar:
	default:
		return writeErrorFrame(bw, fmt.Errorf("wire: unknown protocol %d", proto))
	}
	rs, err := s.db.QuerySession(ctx, sess, query)
	if err != nil {
		var ov *governor.OverloadedError
		if errors.As(err, &ov) {
			// Admission rejection: typed retryable frame, nothing ran.
			return writeRetryFrame(bw, ov)
		}
		return writeErrorFrame(bw, err)
	}
	// Always stop the executor's workers before returning — including
	// on write errors, which is how a client that stops reading
	// mid-result cancels the query.
	defer rs.Close()

	if !rs.HasRows() {
		return writeAffectedFrame(bw, rs.RowsAffected())
	}

	scratch.Reset()
	encodeSchema(scratch, rs.Schema())
	if err := writeFrame(bw, frameSchema, scratch.Bytes()); err != nil {
		return err
	}
	var rows int64
	for {
		ch, err := rs.Next()
		if err != nil {
			// Mid-stream failure: report in-band and keep the
			// connection; the client sees the chunks that preceded it.
			return writeErrorFrame(bw, err)
		}
		if ch == nil {
			return writeEndFrame(bw, rows)
		}
		scratch.Reset()
		if err := encodeChunk(proto, scratch, ch); err != nil {
			return writeErrorFrame(bw, err)
		}
		rows += int64(ch.NumRows())
		if err := writeFrame(bw, frameChunk, scratch.Bytes()); err != nil {
			return err
		}
		// Flush per chunk so time-to-first-row does not wait on the
		// rest of the result.
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// Close stops accepting, cancels the server's context — and with it
// every query, queued, opening or streaming — and closes live
// connections, then waits for the per-connection goroutines to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cancel()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.wg.Wait()
}

// Shutdown drains the server gracefully: stop accepting connections,
// reject newly arriving queries with the typed retryable overloaded
// error, let in-flight queries stream to completion, and fall back to
// a hard Close for whatever has not finished within drainTimeout.
// Idle connections are closed immediately; serving connections close
// themselves after their current request. Blocks until the server is
// fully stopped.
func (s *Server) Shutdown(drainTimeout time.Duration) {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	idle := make([]net.Conn, 0, len(s.conns))
	for c, st := range s.conns {
		// A connection can start serving between this check and the
		// close; its client then sees a connection error instead of a
		// drained result — the same signal a hard shutdown gives.
		if !st.serving.Load() {
			idle = append(idle, c)
		}
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	if s.db.Gov != nil {
		s.db.Gov.SetDraining()
	}
	for _, c := range idle {
		c.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	t := time.NewTimer(drainTimeout)
	defer t.Stop()
	select {
	case <-done:
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.cancel()
	case <-t.C:
		s.Close() // drain window expired: hard-cancel the stragglers
	}
}

// Client is a connection to a wire server. Not safe for concurrent
// use — open one client per goroutine — with one exception: Cancel may
// be called from any goroutine while another streams a result.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	// wmu serializes request writes: Stream's query requests against
	// Cancel's control requests from other goroutines.
	wmu sync.Mutex
	bw  *bufio.Writer
	// stream is the in-flight result, which owns the connection until
	// drained or closed.
	stream *ResultStream
	// fatal latches a framing-level failure (read error, undecodable
	// frame): the stream position is lost, so further requests would
	// misparse leftover frames and are refused.
	fatal error
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<18),
		bw:   bufio.NewWriterSize(conn, 1<<16),
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Cancel asks the server to abandon the connection's in-flight query,
// streaming or still queued for admission, without dropping the
// connection. Safe to call from any goroutine; a
// best-effort race with query completion is fine — the streaming
// goroutine then sees either ErrQueryCancelled or the completed
// result. The cancelled stream must still be drained (Next to the
// error, or Close) before the next request.
func (c *Client) Cancel() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := writeRequest(c.bw, protoCancel, ""); err != nil {
		return err
	}
	return c.bw.Flush()
}

// serverError maps an error-frame payload back to a client-side
// error, reconstructing the ErrQueryCancelled sentinel.
func serverError(payload []byte) error {
	if string(payload) == ErrQueryCancelled.Error() {
		return ErrQueryCancelled
	}
	return fmt.Errorf("wire: server error: %s", payload)
}

// ResultStream iterates a streamed query result chunk by chunk. The
// stream owns the connection until it ends (Next returning nil), the
// server reports an error, or Close drains it.
type ResultStream struct {
	c     *Client
	proto Protocol
	names []string
	types []vector.Type

	hasRows  bool
	affected int64
	rows     int64
	done     bool
	err      error
}

// Stream sends a query and returns the streaming result. Statement
// errors raised before the first row surface here; mid-stream errors
// surface from Next.
func (c *Client) Stream(proto Protocol, sql string) (*ResultStream, error) {
	if c.fatal != nil {
		return nil, fmt.Errorf("wire: connection desynchronized: %w", c.fatal)
	}
	if c.stream != nil && !c.stream.done {
		return nil, errors.New("wire: previous result stream still open")
	}
	c.wmu.Lock()
	err := writeRequest(c.bw, proto, sql)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		return nil, err
	}
	kind, payload, err := readFrame(c.br)
	if err != nil {
		return nil, err
	}
	st := &ResultStream{c: c, proto: proto}
	switch kind {
	case frameError:
		return nil, serverError(payload)
	case frameRetry:
		// Admission rejection: the query never ran and the connection
		// is ready for the next request.
		return nil, decodeRetryFrame(payload)
	case frameAffected:
		if len(payload) != 8 {
			return nil, fmt.Errorf("wire: bad affected frame")
		}
		st.affected = int64(binary.LittleEndian.Uint64(payload))
		st.done = true
	case frameSchema:
		names, types, err := decodeSchema(payload)
		if err != nil {
			// The result's chunks follow undecodable: latch the
			// connection as desynchronized, as Next does.
			c.fatal = err
			return nil, err
		}
		st.names, st.types, st.hasRows = names, types, true
	default:
		return nil, fmt.Errorf("wire: unexpected frame %q", kind)
	}
	c.stream = st
	return st, nil
}

// Columns returns the result's column names (nil for row-less
// statements).
func (s *ResultStream) Columns() []string { return s.names }

// Types returns the result's column types.
func (s *ResultStream) Types() []vector.Type { return s.types }

// HasRows reports whether the statement produced a relation.
func (s *ResultStream) HasRows() bool { return s.hasRows }

// RowsAffected reports the write count of a row-less statement.
func (s *ResultStream) RowsAffected() int64 { return s.affected }

// Next returns the next decoded chunk, or (nil, nil) at end of
// stream. A server-side mid-stream failure is returned as an error;
// the connection stays usable for further requests afterwards.
func (s *ResultStream) Next() (*vector.Chunk, error) {
	if s.done {
		return nil, s.err
	}
	kind, payload, err := readFrame(s.c.br)
	if err != nil {
		return nil, s.fail(err)
	}
	switch kind {
	case frameChunk:
		ch, err := decodeChunk(s.proto, payload, s.types)
		if err != nil {
			// Undecodable frame: the stream position is lost, so the
			// connection cannot be reused (Stream refuses from now on).
			return nil, s.fail(err)
		}
		s.rows += int64(ch.NumRows())
		return ch, nil
	case frameEnd:
		if len(payload) != 8 {
			return nil, s.fail(fmt.Errorf("wire: bad end frame"))
		}
		if total := int64(binary.LittleEndian.Uint64(payload)); total != s.rows {
			return nil, s.fail(fmt.Errorf("wire: stream carried %d rows, server sent %d", s.rows, total))
		}
		s.done = true
		return nil, nil
	case frameError:
		// Clean in-band termination (including a cancelled query): the
		// connection stays usable.
		s.done = true
		s.err = serverError(payload)
		return nil, s.err
	default:
		return nil, s.fail(fmt.Errorf("wire: unexpected frame %q", kind))
	}
}

// fail terminates the stream on a framing-level error and latches the
// connection as desynchronized.
func (s *ResultStream) fail(err error) error {
	s.done = true
	s.err = err
	s.c.fatal = err
	return err
}

// Close drains any remaining frames so the connection can serve the
// next request. The abandoned chunks are discarded undecoded, but a
// mid-stream server error is still recorded (surfaced by Exec); to
// abort a very large result entirely, close the Client instead (the
// server cancels the query when it reads the hang-up), or Cancel.
func (s *ResultStream) Close() error {
	for !s.done {
		kind, payload, err := readFrame(s.c.br)
		if err != nil {
			s.fail(err)
			break
		}
		switch kind {
		case frameEnd:
			s.done = true
		case frameError:
			s.done = true
			s.err = serverError(payload)
		}
	}
	return nil
}

// Query executes sql and materializes the full result client-side: the
// thin wrapper over Stream for callers that want the whole table.
func (c *Client) Query(proto Protocol, sql string) (*vector.Table, error) {
	st, err := c.Stream(proto, sql)
	if err != nil {
		return nil, err
	}
	if !st.HasRows() {
		// Preserve the v1 contract: every statement yields a relation,
		// possibly empty.
		return &vector.Table{}, nil
	}
	// Collect the decoded chunks first, so each result column is sized
	// once instead of growing by doubling.
	var chunks []*vector.Chunk
	total := 0
	for {
		ch, err := st.Next()
		if err != nil {
			return nil, err
		}
		if ch == nil {
			break
		}
		chunks = append(chunks, ch)
		total += ch.NumRows()
	}
	out, err := vector.NewTable(st.names, newColumns(st.types, total))
	if err != nil {
		return nil, err
	}
	for _, ch := range chunks {
		if err := out.AppendChunk(ch); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Exec executes a statement, discarding any result rows, and reports
// the rows written by INSERT/DELETE/UPDATE.
func (c *Client) Exec(sql string) (int64, error) {
	st, err := c.Stream(Columnar, sql)
	if err != nil {
		return 0, err
	}
	if err := st.Close(); err != nil {
		return 0, err
	}
	if st.err != nil {
		return 0, st.err
	}
	return st.affected, nil
}

// RowIterate is the SQLite analog: execute a query in-process and pull
// the result through a row-at-a-time cursor that copies one typed
// field per row per column, as sqlite3_column_* does (no socket and no
// boxing, but all the per-row API overhead). It rides the same
// streaming ResultSet as the wire path — the result is never
// materialized twice.
func RowIterate(db *engine.DB, sql string) (*vector.Table, error) {
	rs, err := db.Query(sql)
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	if !rs.HasRows() {
		return nil, errors.New("wire: statement returned no rows")
	}
	schema := rs.Schema()
	cols := make([]*vector.Vector, len(schema))
	for i, c := range schema {
		cols[i] = vector.New(c.Type, 0)
	}
	for {
		ch, err := rs.Next()
		if err != nil {
			return nil, err
		}
		if ch == nil {
			break
		}
		n := ch.NumRows()
		for r := 0; r < n; r++ {
			for i, c := range ch.Cols() {
				cols[i].AppendRowFrom(c, r)
			}
		}
	}
	return vector.NewTable(schema.Names(), cols)
}
