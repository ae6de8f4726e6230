package wire

import (
	"bufio"
	"bytes"
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
// cancel request. The server uses it as the stream's cancellation
// cause, so its message travels the error frame verbatim and the
// client reconstructs the sentinel for errors.Is.
var ErrQueryCancelled = errors.New("wire: query cancelled by client")

// Server exposes an engine over TCP. Each connection handles a
// sequence of requests; one goroutine per connection plus a reader
// goroutine that keeps consuming control requests (cancel) while a
// result streams. Results are streamed chunk by chunk straight from
// the executor, so serving a huge result holds O(chunk size × workers)
// memory, and a client that disconnects mid-result (or a server
// Close) cancels the query instead of letting scan workers run to
// completion. When the database has a governor, each connection gets
// one governor session, so per-session limits are per-connection.
type Server struct {
	db *engine.DB
	ln net.Listener

	mu       sync.Mutex
	closed   bool
	draining bool
	conns    map[net.Conn]*connState
	streams  map[*engine.ResultSet]struct{}
	wg       sync.WaitGroup
}

// connState is one connection's serving state, shared between its
// serve loop and its reader goroutine.
type connState struct {
	sess    *governor.Session
	serving atomic.Bool                      // a request is being served right now
	cur     atomic.Pointer[engine.ResultSet] // in-flight result, cancel target
}

// NewServer wraps a database for network serving.
func NewServer(db *engine.DB) *Server {
	return &Server{
		db:      db,
		conns:   make(map[net.Conn]*connState),
		streams: make(map[*engine.ResultSet]struct{}),
	}
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
		st := &connState{}
		if s.db.Gov != nil {
			st.sess = s.db.Gov.NewSession()
		}
		s.conns[conn] = st
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn, st)
			if st.sess != nil {
				st.sess.Close()
			}
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// connRequest is one item handed from a connection's reader goroutine
// to its serve loop.
type connRequest struct {
	proto    Protocol
	query    string
	err      error // read failure; tooLarge requests are recoverable
	tooLarge bool
}

func (s *Server) serveConn(conn net.Conn, st *connState) {
	defer conn.Close()
	// A dedicated reader keeps consuming requests while the serve loop
	// streams a result, so a cancel control request takes effect
	// mid-stream. Regular requests are handed over one at a time;
	// connDone (closed when the serve loop exits) keeps the reader from
	// blocking forever on the handoff if the loop exits early.
	connDone := make(chan struct{})
	defer close(connDone)
	reqC := make(chan connRequest, 1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		br := bufio.NewReaderSize(conn, 1<<16)
		for {
			proto, query, err := readRequest(br)
			if err != nil {
				var tl *requestTooLargeError
				recoverable := errors.As(err, &tl)
				select {
				case reqC <- connRequest{err: err, tooLarge: recoverable}:
				case <-connDone:
					return
				}
				if recoverable {
					continue
				}
				return // client hung up or sent garbage
			}
			if proto == protoCancel {
				if rs := st.cur.Load(); rs != nil {
					rs.CancelCause(ErrQueryCancelled)
				}
				continue
			}
			select {
			case reqC <- connRequest{proto: proto, query: query}:
			case <-connDone:
				return
			}
		}
	}()

	bw := bufio.NewWriterSize(conn, 1<<18)
	var scratch bytes.Buffer
	for {
		req := <-reqC
		if req.err != nil {
			if !req.tooLarge {
				return
			}
			// Oversized request: the reader discarded the payload, so
			// reject in-band and keep serving.
			if writeErrorFrame(bw, req.err) != nil || bw.Flush() != nil {
				return
			}
			continue
		}
		st.serving.Store(true)
		err := s.serveQuery(bw, &scratch, st, req.proto, req.query)
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
func (s *Server) serveQuery(bw *bufio.Writer, scratch *bytes.Buffer, st *connState, proto Protocol, query string) error {
	switch proto {
	case TextRows, BinaryRows, Columnar:
	default:
		return writeErrorFrame(bw, fmt.Errorf("wire: unknown protocol %d", proto))
	}
	rs, err := s.db.QuerySession(st.sess, query)
	if err != nil {
		var ov *governor.OverloadedError
		if errors.As(err, &ov) {
			// Admission rejection: typed retryable frame, nothing ran.
			return writeRetryFrame(bw, ov)
		}
		return writeErrorFrame(bw, err)
	}
	// Register for cancellation on Server.Close and expose to the
	// reader goroutine for client-initiated cancel; always stop the
	// executor's workers before returning — including on write errors,
	// which is how a mid-result client disconnect cancels the query.
	s.trackStream(rs)
	st.cur.Store(rs)
	defer func() {
		st.cur.Store(nil)
		s.untrackStream(rs)
		rs.Close()
	}()

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

func (s *Server) trackStream(rs *engine.ResultSet) {
	s.mu.Lock()
	if s.closed {
		// Server.Close already swept the registry; cancel here so a
		// query that started during shutdown cannot stall wg.Wait for
		// its full runtime.
		s.mu.Unlock()
		rs.Cancel()
		return
	}
	s.streams[rs] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrackStream(rs *engine.ResultSet) {
	s.mu.Lock()
	delete(s.streams, rs)
	s.mu.Unlock()
}

// Close stops accepting, cancels in-flight queries, and closes live
// connections, then waits for the per-connection goroutines to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for rs := range s.streams {
		rs.Cancel()
	}
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

// Cancel asks the server to abandon the connection's in-flight query
// without dropping the connection. Safe to call from any goroutine; a
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
// server cancels the query when its writes fail).
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
