package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// request is a request's bytes: the length header, the protocol byte
// and the text.
func request(p Protocol, sql string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(sql)))
	return append(append(b, byte(p)), sql...)
}

// FuzzReadRequest feeds the server's request reader arbitrary bytes:
// it reads back each whole request the bytes hold, fails on the rest
// with an error, never a panic, and allocates at most a fixed 128 KiB
// plus eight bytes per input byte — whatever length a header claims.
func FuzzReadRequest(f *testing.F) {
	two := append(request(Columnar, "SELECT 1"), request(TextRows, "")...)
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Add(request(BinaryRows, "SELECT a FROM t")[:9])
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, 1, 'x'}) // claims 16 MiB - 1
	f.Add(binary.LittleEndian.AppendUint32(nil, maxRequestSize+1))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, maxDiscardSize+1), 1, 'x'))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := bytes.NewReader(b)
		for at := 0; ; {
			p, sql, err := readRequest(r)
			if err != nil {
				var tooLarge *requestTooLargeError
				if errors.As(err, &tooLarge) {
					at = len(b) - r.Len()
					continue // discarded in-band: the next request follows
				}
				break
			}
			n := int(binary.LittleEndian.Uint32(b[at:]))
			if p != Protocol(b[at+4]) || sql != string(b[at+5:at+5+n]) {
				t.Fatalf("request at %d read as %d %q", at, p, sql)
			}
			at += 5 + n
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 128<<10+8*uint64(len(b)) {
			t.Fatalf("reading %d bytes allocated %d", len(b), grew)
		}
	})
}

// FuzzReadFrame feeds the client's frame reader arbitrary bytes: it
// reads back each whole frame the bytes hold and fails on the rest with
// an error, never a panic. readFrame allocates what a frame claims (its
// comment says why), so inputs claiming more than 16 MiB within the
// limit are not fed: each would allocate up to 256 MiB per run.
func FuzzReadFrame(f *testing.F) {
	frame := func(kind byte, payload string) []byte {
		return append(binary.LittleEndian.AppendUint32([]byte{kind}, uint32(len(payload))), payload...)
	}
	two := append(frame(frameSchema, "abc"), frame(frameEnd, "")...)
	f.Add(two)
	f.Add(two[:6])
	f.Add(frame(frameError, "boom")[:4])
	f.Add(binary.LittleEndian.AppendUint32([]byte{frameChunk}, maxFrameSize+1))
	f.Add(binary.LittleEndian.AppendUint32([]byte{frameChunk}, 1<<20))
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		for at := 0; ; {
			if len(b)-at >= 5 {
				if n := binary.LittleEndian.Uint32(b[at+1:]); n > 16<<20 && n <= maxFrameSize {
					return
				}
			}
			kind, payload, err := readFrame(r)
			if err != nil {
				return
			}
			if kind != b[at] || !bytes.Equal(payload, b[at+5:at+5+len(payload)]) {
				t.Fatalf("frame at %d read as %c %q", at, kind, payload)
			}
			at += 5 + len(payload)
		}
	})
}
