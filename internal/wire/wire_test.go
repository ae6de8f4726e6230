package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"vexdb/internal/catalog"
	"vexdb/internal/difftest"
	"vexdb/internal/engine"
	"vexdb/internal/governor"
	"vexdb/internal/vector"
)

func startServer(t *testing.T) (*engine.DB, string) {
	t.Helper()
	db := engine.New()
	script := []string{
		"CREATE TABLE t (id BIGINT, v DOUBLE, name VARCHAR, raw BLOB)",
	}
	for _, q := range script {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO t (id, v, name) VALUES ")
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d, %f, 'row %d')", i, float64(i)*0.5, i)
	}
	if _, err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return db, addr
}

// bigServer serves a table large enough to span many chunks (and many
// storage segments), loaded through the catalog to keep test setup
// fast.
func bigServer(t *testing.T, rows, workers int) (*engine.DB, *Server, string) {
	t.Helper()
	db := bigDB(t, rows, workers)
	srv := NewServer(db)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return db, srv, addr
}

// bigDB builds the "big" table without starting a server, so tests can
// configure the engine (governor, deadlines) before it begins serving.
func bigDB(t *testing.T, rows, workers int) *engine.DB {
	t.Helper()
	db := engine.New()
	db.Parallelism = workers
	schema := catalog.Schema{
		{Name: "id", Type: vector.Int64},
		{Name: "pad", Type: vector.String},
	}
	ct, err := db.Catalog().CreateTable("big", schema)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 64)
	for lo := 0; lo < rows; lo += vector.DefaultChunkSize {
		hi := lo + vector.DefaultChunkSize
		if hi > rows {
			hi = rows
		}
		ids := make([]int64, hi-lo)
		pads := make([]string, hi-lo)
		for i := range ids {
			ids[i] = int64(lo + i)
			pads[i] = pad
		}
		ch := vector.NewChunk(vector.FromInt64s(ids), vector.FromStrings(pads))
		if err := ct.Data.AppendChunk(ch); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestAllProtocolsRoundTrip(t *testing.T) {
	db, addr := startServer(t)
	const q = "SELECT id, v, name, raw FROM t ORDER BY id"
	want, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []Protocol{TextRows, BinaryRows, Columnar} {
		t.Run(proto.String(), func(t *testing.T) {
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			tab, err := c.Query(proto, q)
			if err != nil {
				t.Fatal(err)
			}
			if d := difftest.Diff(tab, want.Table); d != "" {
				t.Fatal(d)
			}
			if tab.NumRows() != 500 || tab.NumCols() != 4 {
				t.Fatalf("dims %dx%d", tab.NumCols(), tab.NumRows())
			}
			if tab.Column("id").Get(7).Int64() != 7 {
				t.Fatal("id wrong")
			}
			if tab.Column("v").Get(3).Float64() != 1.5 {
				t.Fatal("v wrong")
			}
			if tab.Column("name").Get(10).Str() != "row 10" {
				t.Fatal("name wrong")
			}
			if !tab.Column("raw").IsNull(0) {
				t.Fatal("null blob wrong")
			}
		})
	}
}

func TestEscapingAndSpecialValues(t *testing.T) {
	db := engine.New()
	if _, err := db.Exec("CREATE TABLE s (x VARCHAR, b BOOLEAN, i INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO s VALUES ('tab	and
newline', TRUE, -5), (NULL, FALSE, NULL), ('NULL', NULL, 0), ('', TRUE, 1)`); err != nil {
		t.Fatal(err)
	}
	want, err := db.Exec("SELECT x, b, i FROM s")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, proto := range []Protocol{TextRows, BinaryRows, Columnar} {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := c.Query(proto, "SELECT x, b, i FROM s")
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if d := difftest.Diff(tab, want.Table); d != "" { // NULL apart from 'NULL' and ''
			t.Fatalf("%s: %s", proto, d)
		}
		if got := tab.Column("x").Get(0).Str(); got != "tab\tand\nnewline" {
			t.Fatalf("%s: escaped string = %q", proto, got)
		}
		if !tab.Column("x").IsNull(1) || !tab.Column("i").IsNull(1) {
			t.Fatalf("%s: null handling", proto)
		}
		if tab.Column("b").Get(0).Bool() != true || tab.Column("i").Get(0).Int64() != -5 {
			t.Fatalf("%s: values", proto)
		}
	}
}

func TestServerError(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(TextRows, "SELECT * FROM no_such_table"); err == nil {
		t.Fatal("server error not propagated")
	}
	// The connection stays usable after an error.
	tab, err := c.Query(TextRows, "SELECT count(*) AS n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Column("n").Get(0).Int64() != 500 {
		t.Fatal("post-error query")
	}
}

// max(NULL) used to panic the server's stream when it cast the
// untyped aggregate column to the schema; it is a DOUBLE NULL now, in
// every protocol.
func TestAggregateOfBareNullOverWire(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, proto := range []Protocol{TextRows, BinaryRows, Columnar} {
		tab, err := c.Query(proto, "SELECT max(NULL) AS mx, sum(NULL) AS s, count(DISTINCT NULL) AS cd FROM t")
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if tab.NumRows() != 1 || !tab.Column("mx").IsNull(0) || !tab.Column("s").IsNull(0) || tab.Column("cd").Get(0).Int64() != 0 {
			t.Fatalf("%s: mx=%v s=%v cd=%v", proto, tab.Column("mx").Get(0), tab.Column("s").Get(0), tab.Column("cd").Get(0))
		}
	}
}

// A bare NULL in a select list used to panic the connection's goroutine
// and so end the server; it is a VARCHAR NULL now, and the connection
// answers the next query.
func TestSelectNullOverWire(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tab, err := c.Query(Columnar, "SELECT NULL")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1 || tab.Cols[0].Type() != vector.String || !tab.Cols[0].IsNull(0) {
		t.Fatalf("SELECT NULL: %d rows of %s", tab.NumRows(), tab.Cols[0].Type())
	}
	tab, err = c.Query(Columnar, "SELECT count(*) AS n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Column("n").Get(0).Int64() != 500 {
		t.Fatalf("next query: n = %v", tab.Column("n").Get(0))
	}
}

func TestClientExecAndMultipleRequests(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE made_remotely (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	n, err := c.Exec("INSERT INTO made_remotely VALUES (1), (2)")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("RowsAffected = %d, want 2", n)
	}
	tab, err := c.Query(BinaryRows, "SELECT sum(a) AS s FROM made_remotely")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Column("s").Get(0).Int64() != 3 {
		t.Fatal("remote DDL/DML failed")
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			c, err := Dial(addr)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for j := 0; j < 5; j++ {
				tab, err := c.Query(Columnar, "SELECT count(*) AS n FROM t")
				if err != nil {
					done <- err
					return
				}
				if tab.Column("n").Get(0).Int64() != 500 {
					done <- fmt.Errorf("wrong count")
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRowIterate(t *testing.T) {
	db, _ := startServer(t)
	tab, err := RowIterate(db, "SELECT id, v FROM t ORDER BY id LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 10 || tab.Column("v").Get(4).Float64() != 2 {
		t.Fatalf("row iterate: %d rows", tab.NumRows())
	}
	if _, err := RowIterate(db, "SELECT * FROM nope"); err == nil {
		t.Fatal("error not propagated")
	}
	if _, err := RowIterate(db, "CREATE TABLE ri (a BIGINT)"); err == nil {
		t.Fatal("row-less statement should error")
	}
}

func TestHexCodec(t *testing.T) {
	b := []byte{0, 1, 0xAB, 0xFF}
	s := hexEncode(b)
	if s != "0001abff" {
		t.Fatalf("hex = %q", s)
	}
	back, err := hexDecode(s)
	if err != nil || string(back) != string(b) {
		t.Fatal("hex round trip")
	}
	if _, err := hexDecode("abc"); err == nil {
		t.Error("odd length should fail")
	}
	if _, err := hexDecode("zz"); err == nil {
		t.Error("bad digit should fail")
	}
}

func TestEmptyResult(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, proto := range []Protocol{TextRows, BinaryRows, Columnar} {
		tab, err := c.Query(proto, "SELECT id FROM t WHERE id < 0")
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if tab.NumRows() != 0 {
			t.Fatalf("%s: %d rows", proto, tab.NumRows())
		}
	}
}

// ------------------------------------------------ streaming coverage

// Streamed wire results must be row-identical to the engine's
// materialized Exec output across all protocols and worker counts.
func TestStreamedMatchesExecAllProtocols(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		db, _, addr := bigServer(t, 10_000, workers)
		queries := []string{
			"SELECT id, pad FROM big",
			"SELECT id * 2 AS d FROM big WHERE id % 7 = 0",
			"SELECT count(*) AS n, sum(id) AS s FROM big",
			"SELECT id FROM big LIMIT 11",
		}
		for _, q := range queries {
			want, err := db.Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, proto := range []Protocol{TextRows, BinaryRows, Columnar} {
				c, err := Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				st, err := c.Stream(proto, q)
				if err != nil {
					t.Fatalf("w=%d %s %s: %v", workers, proto, q, err)
				}
				got, err := difftest.Collect(st.Columns(), st.Types(), st.Next)
				if err != nil {
					t.Fatalf("w=%d %s %s: %v", workers, proto, q, err)
				}
				if d := difftest.Diff(got, want.Table); d != "" {
					t.Fatalf("w=%d %s %s: %s", workers, proto, q, d)
				}
				c.Close()
			}
		}
	}
}

// A mid-stream execution failure must surface after the leading
// chunks, as an in-band error frame that leaves the connection usable.
func TestMidStreamErrorOverWire(t *testing.T) {
	db := engine.New()
	db.Parallelism = 2
	if _, err := db.Exec("CREATE TABLE s (v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	const rows = 20_000
	for lo := 0; lo < rows; lo += 1000 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO s VALUES ")
		for i := lo; i < lo+1000; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			if i == rows-500 {
				sb.WriteString("('boom')")
				continue
			}
			fmt.Fprintf(&sb, "('%d')", i)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(db)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, proto := range []Protocol{TextRows, BinaryRows, Columnar} {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Stream(proto, "SELECT CAST(v AS BIGINT) AS n FROM s")
		if err != nil {
			t.Fatalf("%s: open: %v", proto, err)
		}
		var chunks int
		var streamErr error
		for {
			ch, err := st.Next()
			if err != nil {
				streamErr = err
				break
			}
			if ch == nil {
				break
			}
			chunks++
		}
		if streamErr == nil || !strings.Contains(streamErr.Error(), "boom") {
			t.Fatalf("%s: err = %v", proto, streamErr)
		}
		if chunks == 0 {
			t.Fatalf("%s: no chunks before the mid-stream error", proto)
		}
		// The error frame terminates the response; the connection must
		// survive for the next request.
		tab, err := c.Query(proto, "SELECT count(*) AS n FROM s")
		if err != nil {
			t.Fatalf("%s: post-error query: %v", proto, err)
		}
		if tab.Column("n").Get(0).Int64() != rows {
			t.Fatalf("%s: post-error count", proto)
		}
		// Exec drains without decoding, but must still surface a
		// mid-stream failure instead of reporting success.
		if _, err := c.Exec("SELECT CAST(v AS BIGINT) AS n FROM s"); err == nil ||
			!strings.Contains(err.Error(), "boom") {
			t.Fatalf("%s: Exec swallowed mid-stream error: %v", proto, err)
		}
		c.Close()
	}
}

// LIMIT k over a large table must terminate the response after k rows
// without the server scanning the whole relation.
func TestLimitEarlyExitOverWire(t *testing.T) {
	_, _, addr := bigServer(t, 300_000, 4)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	st, err := c.Stream(Columnar, "SELECT id, pad FROM big LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	for {
		ch, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ch == nil {
			break
		}
		rows += ch.NumRows()
	}
	if rows != 5 {
		t.Fatalf("LIMIT 5 delivered %d rows", rows)
	}
	// Generous sanity bound: streaming 5 rows must not cost a full
	// 300k-row scan + transfer.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("LIMIT query took %v", elapsed)
	}
}

// A client that disconnects mid-result must cancel the query: the
// server's next write fails, the ResultSet closes and releases its
// governor ticket, and executor workers exit instead of scanning to
// completion.
func TestClientDisconnectStopsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	_, srv, addr := govServer(t, 400_000, 8, governor.Config{MaxActive: 4}, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stream(Columnar, "SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if ch, err := st.Next(); err != nil || ch == nil {
		t.Fatalf("first chunk: %v %v", ch, err)
	}
	// Abrupt disconnect with most of the ~28MB result unread.
	c.Close()
	waitNoLeaks(t, srv, before)
}

// Server.Close during an in-flight result must cancel the query and
// return promptly rather than waiting for the scan to finish.
func TestServerCloseCancelsInFlight(t *testing.T) {
	_, srv, addr := bigServer(t, 400_000, 8)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stream(BinaryRows, "SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if ch, err := st.Next(); err != nil || ch == nil {
		t.Fatalf("first chunk: %v %v", ch, err)
	}
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close blocked on in-flight query")
	}
	// The interrupted client eventually observes a broken stream.
	for {
		ch, err := st.Next()
		if err != nil {
			break
		}
		if ch == nil {
			// The remaining buffered frames may include the end frame
			// if the query finished racing the shutdown; acceptable.
			break
		}
	}
}

// ResultStream.Close must drain an abandoned result so the connection
// can serve the next request.
func TestStreamCloseDrains(t *testing.T) {
	_, _, addr := bigServer(t, 50_000, 2)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stream(TextRows, "SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if ch, err := st.Next(); err != nil || ch == nil {
		t.Fatalf("first chunk: %v %v", ch, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	tab, err := c.Query(Columnar, "SELECT count(*) AS n FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Column("n").Get(0).Int64() != 50_000 {
		t.Fatal("post-drain query")
	}
}

// Chunk frames carry an untrusted row count; a hostile value must be
// rejected before column preallocation, not OOM the client. Every
// field costs a body byte, so rows × columns beyond the body is hostile
// too, even when the rows alone would fit.
func TestDecodeChunkRowCountGuard(t *testing.T) {
	payload := make([]byte, 8)
	binary.LittleEndian.PutUint32(payload, 0xFFFFFFFF)
	for _, proto := range []Protocol{TextRows, BinaryRows, Columnar} {
		if _, err := decodeChunk(proto, payload, []vector.Type{vector.Int64}); err == nil {
			t.Fatalf("%s: hostile row count accepted", proto)
		}
	}
	// Zero-column chunks must declare zero rows.
	if _, err := decodeChunk(Columnar, payload, nil); err == nil {
		t.Fatal("rows in zero-column chunk accepted")
	}
	wide := make([]vector.Type, 16)
	for i := range wide {
		wide[i] = vector.Blob
	}
	payload = make([]byte, 4+16<<10)
	binary.LittleEndian.PutUint32(payload, 16<<10) // one byte per row for 16 columns
	for _, proto := range []Protocol{TextRows, BinaryRows} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeChunk(proto, payload, wide)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: %v", proto, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Fatalf("%s: rejecting %d rows of 16 columns allocated %d bytes", proto, 16<<10, grew)
		}
	}
}

// Text rows must carry exactly the schema's fields and the declared
// row count.
func TestDecodeTextRowShape(t *testing.T) {
	types := []vector.Type{vector.Int64, vector.String}
	for _, tc := range []struct {
		rows uint32
		body string
	}{
		{1, "1\ta\tb\n"}, // a field too many
		{1, "1\n"},       // a field short
		{1, "1\ta"},      // unterminated
		{1, "1\ta\n2\tb\n"},
		{2, "1\ta\n"},
	} {
		payload := binary.LittleEndian.AppendUint32(nil, tc.rows)
		payload = append(payload, tc.body...)
		if _, err := decodeChunk(TextRows, payload, types); !errors.Is(err, ErrMalformed) {
			t.Errorf("%d rows of %q: %v", tc.rows, tc.body, err)
		}
	}
	payload := append(binary.LittleEndian.AppendUint32(nil, 2), "1\ta\n\\N\tb\\tc\n"...)
	ch, err := decodeChunk(TextRows, payload, types)
	if err != nil || !ch.Col(0).IsNull(1) || ch.Col(1).Strings()[1] != "b\tc" {
		t.Fatalf("valid rows: %v", err)
	}
}

// A binary VARCHAR/BLOB length is untrusted too: one past the end of
// the body must be rejected before it sizes an allocation (a 5-byte
// body declaring 4 GiB), and null flags other than 0/1 are corruption.
func TestDecodeBinaryFieldGuards(t *testing.T) {
	hostile := []byte{1, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF} // 1 row: flag 0, length 2^32-1
	for _, typ := range []vector.Type{vector.String, vector.Blob} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeChunk(BinaryRows, hostile, []vector.Type{typ})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("%v: hostile length: %v", typ, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<10 {
			t.Fatalf("%v: rejecting a hostile length allocated %d bytes", typ, grew)
		}
	}
	for _, flag := range []byte{2, 0xFF} {
		body := []byte{1, 0, 0, 0, flag, 7, 0, 0, 0} // 1 row: an INTEGER 7
		if _, err := decodeChunk(BinaryRows, body, []vector.Type{vector.Int32}); !errors.Is(err, ErrMalformed) {
			t.Fatalf("null flag %d: %v", flag, err)
		}
	}
	body := []byte{1, 0, 0, 0, 0, 7, 0, 0, 0}
	if ch, err := decodeChunk(BinaryRows, body, []vector.Type{vector.Int32}); err != nil || ch.Col(0).Int32s()[0] != 7 {
		t.Fatalf("valid field: %v", err)
	}
}

// serveFrames accepts one connection, reads one request and answers it
// with the given frames, then holds the connection open so a client
// failure is decode-level, not a read error.
func serveFrames(t *testing.T, frames func(w io.Writer)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-served
	})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, _, err := readRequest(br); err != nil {
			return
		}
		bw := bufio.NewWriter(conn)
		frames(bw)
		bw.Flush()
		var one [1]byte
		conn.Read(one[:])
	}()
	return ln.Addr().String()
}

// A schema frame naming an unknown column type must come back as
// ErrMalformed, not a panic inside vector.New, and the frames after it
// leave the connection desynchronized.
func TestSchemaRejectsInvalidType(t *testing.T) {
	addr := serveFrames(t, func(w io.Writer) {
		var buf bytes.Buffer
		encodeSchema(&buf, catalog.Schema{{Name: "x", Type: vector.Int64}, {Name: "y", Type: vector.Int64}})
		schema := buf.Bytes()
		schema[len(schema)-1] = 0xEE
		writeFrame(w, frameSchema, schema)
		chunk := make([]byte, 4)
		writeFrame(w, frameChunk, chunk)
		writeEndFrame(w, 0)
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(Columnar, "SELECT 1, 2"); !errors.Is(err, ErrMalformed) ||
		!strings.Contains(err.Error(), "0xee") {
		t.Fatalf("invalid type byte: %v", err)
	}
	if _, err := c.Stream(Columnar, "SELECT 1"); err == nil ||
		!strings.Contains(err.Error(), "desynchronized") {
		t.Fatalf("desync not latched: %v", err)
	}
}

// An undecodable frame desynchronizes the stream; the client must
// refuse further requests on that connection instead of misparsing
// leftover frames.
func TestDesyncLatchRefusesReuse(t *testing.T) {
	addr := serveFrames(t, func(w io.Writer) {
		var buf bytes.Buffer
		encodeSchema(&buf, catalog.Schema{{Name: "x", Type: vector.Int64}})
		writeFrame(w, frameSchema, buf.Bytes())
		// Bogus chunk: declares 3 rows with an empty body.
		chunk := make([]byte, 4)
		binary.LittleEndian.PutUint32(chunk, 3)
		writeFrame(w, frameChunk, chunk)
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stream(Columnar, "SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err == nil {
		t.Fatal("bogus chunk accepted")
	}
	if _, err := c.Stream(Columnar, "SELECT 1"); err == nil ||
		!strings.Contains(err.Error(), "desynchronized") {
		t.Fatalf("desync not latched: %v", err)
	}
}
