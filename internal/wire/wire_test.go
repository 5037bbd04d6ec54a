package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"portcc/internal/pcerr"
)

// codecPayload is an application value with its own wire codec: its
// bytes cross as they are and arrive as Raw.
type codecPayload string

func (p codecPayload) AppendWire(b []byte) []byte { return append(b, p...) }

// received is f as the far side decodes it: a Job spec or Result
// payload arrives as the bytes it appended.
func received(f *Frame) *Frame {
	switch {
	case f.Job != nil:
		return &Frame{Job: &Job{Spec: Raw(f.Job.Spec.AppendWire(nil))}}
	case f.Result != nil:
		return &Frame{Result: &Result{Index: f.Result.Index, Payload: Raw(f.Result.Payload.AppendWire(nil))}}
	}
	return f
}

// TestFrameRoundTrips pushes one frame of every kind through a Conn pair
// and requires the decoded frame to match field for field; a Job spec or
// Result payload arrives as its bytes.
func TestFrameRoundTrips(t *testing.T) {
	frames := []*Frame{
		{Hello: &Hello{Format: 9, Heartbeat: 250 * time.Millisecond}},
		{Hello: &Hello{Format: math.MaxUint32}},
		{Job: &Job{Spec: codecPayload("grid of three cells")}},
		{Job: &Job{Spec: Raw("grid")}},
		{Assign: &Assign{Cells: []int{4, 7, 19}}},
		{Assign: &Assign{}},
		{Result: &Result{Index: 8, Payload: codecPayload("cell-8 counters")}},
		{Result: &Result{Index: 9, Payload: Raw("cell-9 counters")}},
		{CellError: &CellError{Index: 3, Msg: "boom", Code: CodeUnknownProgram, Sim: true, Program: "crc", Setting: 2, Arch: 5}},
		{CellError: &CellError{Index: 4, Msg: "no trace", Code: CodeInvalidConfig, Sim: true, Program: "gs", Setting: -1, Arch: -1}},
		{Fail: &Fail{Msg: "refused"}},
		{Fail: &Fail{}},
		{StoreGet: &StoreGet{ID: 11, Key: [32]byte{1, 2, 3}}},
		{StorePut: &StorePut{ID: 12, Key: [32]byte{4, 5}, Payload: []byte("cycles")}},
		{StoreReply: &StoreReply{ID: 11, Found: true, Payload: []byte("cycles")}},
		{StoreReply: &StoreReply{ID: 13, Err: "disk full"}},
		{StoreReply: &StoreReply{ID: 14, Err: "entry quarantined", Payload: []byte("stale")}},
		{Heartbeat: true},
	}
	var buf bytes.Buffer
	c := NewConn(&buf)
	for _, f := range frames {
		if err := c.Send(f); err != nil {
			t.Fatalf("sending %s frame: %v", f.Kind(), err)
		}
	}
	for _, want := range frames {
		want = received(want)
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("receiving %s frame: %v", want.Kind(), err)
		}
		if got.Kind() != want.Kind() {
			t.Fatalf("got %s frame, want %s", got.Kind(), want.Kind())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s frame changed in transit:\n got %+v\nwant %+v", want.Kind(), got, want)
		}
	}
}

// pipePair returns the two ends of an in-memory connection.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return NewConn(a), NewConn(b)
}

func TestHandshakeAgrees(t *testing.T) {
	client, server := pipePair(t)
	srvErr := make(chan error, 1)
	go func() { srvErr <- server.ServerHello(7, 125*time.Millisecond) }()
	hb, err := client.ClientHello(7)
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if hb != 125*time.Millisecond {
		t.Errorf("client saw heartbeat %v, want 125ms", hb)
	}
	if err := <-srvErr; err != nil {
		t.Errorf("server handshake: %v", err)
	}
}

// TestHandshakeFormatMismatch: a coordinator and worker built against
// different dataset schema versions must fail typed on both sides, not
// with gob decode noise.
func TestHandshakeFormatMismatch(t *testing.T) {
	client, server := pipePair(t)
	srvErr := make(chan error, 1)
	go func() { srvErr <- server.ServerHello(8, 0) }()
	_, err := client.ClientHello(7)
	if !errors.Is(err, pcerr.ErrDatasetVersion) {
		t.Errorf("client: got %v, want ErrDatasetVersion", err)
	}
	if err := <-srvErr; !errors.Is(err, pcerr.ErrDatasetVersion) {
		t.Errorf("server: got %v, want ErrDatasetVersion", err)
	}
}

// fakePeer is our end of a pipe to a scripted peer that reads and
// discards whatever we send and writes stream.
func fakePeer(t *testing.T, stream []byte) *Conn {
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go io.Copy(io.Discard, a)
	go a.Write(stream)
	return NewConn(b)
}

// TestHandshakeProtoMismatch fakes a peer speaking another protocol
// version - the next one, and the previous one - through the version
// byte of its stream magic, followed by a Hello this build would accept:
// both sides of the handshake refuse it with the wire sentinel, distinct
// from the dataset schema sentinel.
func TestHandshakeProtoMismatch(t *testing.T) {
	for _, proto := range []byte{ProtoVersion + 1, ProtoVersion - 1} {
		stream := encodeFresh(t, &Frame{Hello: &Hello{Format: 7}})
		stream[len(magic)-1] = proto
		_, cerr := fakePeer(t, stream).ClientHello(7)
		serr := fakePeer(t, stream).ServerHello(7, 0)
		for side, err := range map[string]error{"client": cerr, "server": serr} {
			if !errors.Is(err, pcerr.ErrWireVersion) {
				t.Errorf("%s, v%d peer: got %v, want ErrWireVersion", side, proto, err)
			}
			if errors.Is(err, pcerr.ErrDatasetVersion) {
				t.Errorf("%s, v%d peer: proto mismatch also matched ErrDatasetVersion", side, proto)
			}
		}
	}
}

// TestHandshakeHeartbeatDefault: a server that does not announce a
// heartbeat period still yields a usable (positive) client deadline base.
func TestHandshakeHeartbeatDefault(t *testing.T) {
	client, server := pipePair(t)
	go server.ServerHello(1, 0)
	hb, err := client.ClientHello(1)
	if err != nil {
		t.Fatal(err)
	}
	if hb <= 0 {
		t.Errorf("defaulted heartbeat %v, want > 0", hb)
	}
}

// v2Hello and v2Frame have the field layouts of protocol v2's Hello and
// frame: a v2 peer's stream is a raw gob stream of frames, with no magic
// and no lengths.
type v2Hello struct {
	Proto, Format int
	Heartbeat     time.Duration
}

type v2Frame struct {
	Hello     *v2Hello
	Heartbeat bool
}

// TestV2HelloRefusedTyped: a v2 peer's gob-encoded Hello fails the v3
// handshake on either side with pcerr.ErrWireVersion, not decode noise.
func TestV2HelloRefusedTyped(t *testing.T) {
	v2Hello := func(w io.Writer) {
		gob.NewEncoder(w).Encode(&v2Frame{Hello: &v2Hello{Proto: 2, Format: 7}})
	}

	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go v2Hello(a) // a v2 coordinator dialling a v3 worker
	if err := NewConn(b).ServerHello(7, 0); !errors.Is(err, pcerr.ErrWireVersion) {
		t.Errorf("server: got %v, want ErrWireVersion", err)
	}

	a, b = net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go io.Copy(io.Discard, a) // a v2 worker: reads our Hello, answers in v2
	go v2Hello(a)
	_, err := NewConn(b).ClientHello(7)
	if !errors.Is(err, pcerr.ErrWireVersion) {
		t.Errorf("client: got %v, want ErrWireVersion", err)
	}
	if errors.Is(err, pcerr.ErrWireFrame) {
		t.Errorf("client: a v2 peer also matched ErrWireFrame: %v", err)
	}
}

// v3Magic opens a v3 stream: its last byte is 'w', not a version.
var v3Magic = []byte{0xC7, 'p', 'c', 'w'}

// TestV3PeerRefusedTyped: a v3 peer's stream, magic then a Hello frame,
// fails the v4 handshake on either side with pcerr.ErrWireVersion on its
// fourth byte, before any frame is read.
func TestV3PeerRefusedTyped(t *testing.T) {
	v3 := append(append(bytes.Clone(v3Magic), rawFrame(false, 16, kindHello)...), make([]byte, 16)...)
	if err := fakePeer(t, v3).ServerHello(7, 0); !errors.Is(err, pcerr.ErrWireVersion) {
		t.Errorf("server: got %v, want ErrWireVersion", err)
	}
	_, err := fakePeer(t, v3).ClientHello(7)
	if !errors.Is(err, pcerr.ErrWireVersion) {
		t.Errorf("client: got %v, want ErrWireVersion", err)
	}
	if errors.Is(err, pcerr.ErrWireFrame) {
		t.Errorf("client: a v3 peer also matched ErrWireFrame: %v", err)
	}
}

// TestSendRefusesOutOfLayout: a frame whose fields do not fit its layout
// fails to send, and writes nothing.
func TestSendRefusesOutOfLayout(t *testing.T) {
	for _, f := range []*Frame{
		{},
		{Hello: &Hello{Format: -1}},
		{Job: &Job{}},
		{Assign: &Assign{Cells: []int{1, -2}}},
		{Result: &Result{Index: 1}},
		{Result: &Result{Index: -1, Payload: Raw("x")}},
		{CellError: &CellError{Index: 1, Code: 256}},
	} {
		var buf bytes.Buffer
		if err := NewConn(&buf).Send(f); err == nil || buf.Len() != 0 {
			t.Errorf("%s frame %+v: sent %d bytes, error %v; want nothing sent and an error", f.Kind(), f, buf.Len(), err)
		}
	}
}

// rawFrame is one frame header claiming n body bytes of the given kind,
// behind the stream magic when open is set - what a hostile or broken
// peer writes before the body it never sends.
func rawFrame(open bool, n uint32, kind byte) []byte {
	var b []byte
	if open {
		b = append(b, magic[:]...)
	}
	b = binary.BigEndian.AppendUint32(b, n)
	return append(b, kind)
}

// TestFrameCapRefusesClaims: a length over MaxFrame fails typed before
// any body byte is read, and a body cut short under the cap fails as a
// torn stream; neither allocates the claimed size.
func TestFrameCapRefusesClaims(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bytes []byte
		want  error
	}{
		{"1GiB claim", rawFrame(true, 1<<30, kindJob), pcerr.ErrWireFrame},
		{"cap+1 claim", rawFrame(true, MaxFrame+1, kindStorePut), pcerr.ErrWireFrame},
		{"unknown kind", rawFrame(true, 4, kindEnd), pcerr.ErrWireFrame},
		{"claim past the bytes sent", append(rawFrame(true, MaxFrame, kindStorePut), make([]byte, 100)...), io.ErrUnexpectedEOF},
		{"no magic", rawFrame(false, 8, kindHello), pcerr.ErrWireVersion},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := NewConn(readWriter{Reader: bytes.NewReader(tc.bytes)})
		_, err := c.Recv()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if _, again := c.Recv(); again != err {
			t.Errorf("%s: a second Recv returned %v, want the sticky %v", tc.name, again, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d", tc.name, len(tc.bytes), grew)
		}
	}
}

// readWriter joins a reader and a writer into a stream.
type readWriter struct {
	io.Reader
	io.Writer
}

// encodeFresh is f's encoding on a new connection: magic, then the
// frame.
func encodeFresh(t *testing.T, f *Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewConn(&buf).Send(f); err != nil {
		t.Fatalf("re-encoding a received %s frame: %v", f.Kind(), err)
	}
	return buf.Bytes()
}

// FuzzConnRecv feeds arbitrary bytes to Recv until it fails. No input
// may panic; every failure is typed (pcerr.ErrWireFrame,
// pcerr.ErrWireVersion, or io.EOF/io.ErrUnexpectedEOF for a stream that
// ends); and each Recv allocates within a few times the bytes it
// consumed plus a constant - never the length a header claims - for
// every frame kind alike. Every frame that decodes re-encodes to its own
// bytes.
func FuzzConnRecv(f *testing.F) {
	var stream bytes.Buffer
	c := NewConn(&stream)
	for _, fr := range []*Frame{
		{Hello: &Hello{Format: 9, Heartbeat: time.Second}},
		{Job: &Job{Spec: Raw(`{"Programs":["crc"]}`)}},
		{Assign: &Assign{Cells: []int{4, 7, 19}}},
		{Result: &Result{Index: 8, Payload: Raw("counters")}},
		{CellError: &CellError{Index: 7, Msg: "no trace", Code: CodeInvalidConfig, Sim: true, Program: "gs", Setting: -1, Arch: -1}},
		{CellError: &CellError{Index: 3, Msg: "boom", Sim: true, Program: "crc"}},
		{Fail: &Fail{Msg: "refused"}},
		{StoreGet: &StoreGet{ID: 11, Key: [32]byte{1, 2, 3}}},
		{StorePut: &StorePut{ID: 12, Key: [32]byte{4, 5}, Payload: []byte("cycles")}},
		{StoreReply: &StoreReply{ID: 13, Found: true, Err: "stale", Payload: []byte("cycles")}},
		{Heartbeat: true},
	} {
		if err := c.Send(fr); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(stream.Bytes()))
	}
	f.Add(stream.Bytes()[:stream.Len()-3])
	f.Add(rawFrame(true, 1<<30, kindJob))
	f.Add(append(rawFrame(true, MaxFrame, kindStorePut), make([]byte, 64)...))
	f.Add(append(bytes.Clone(v3Magic), stream.Bytes()[len(magic):]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		c := NewConn(readWriter{Reader: src})
		consumed := func() int { return len(data) - src.Len() - c.r.Buffered() }
		var ms runtime.MemStats
		for {
			at := consumed()
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			fr, err := c.Recv()
			runtime.ReadMemStats(&ms)
			used, n := ms.TotalAlloc-before, consumed()-at
			// The frame starts past the magic on the first Recv; its
			// own kind byte is known once its header arrived.
			if at == 0 {
				at = min(len(magic), len(data))
			}
			kind := byte(0)
			if at+headerLen <= len(data) {
				kind = data[at+4]
			}
			if limit := uint64(4*n + bodyStep + 4<<10); used > limit {
				t.Fatalf("Recv of %d bytes (kind %d) allocated %d, over %d", n, kind, used, limit)
			}
			if err != nil {
				if !errors.Is(err, pcerr.ErrWireFrame) && !errors.Is(err, pcerr.ErrWireVersion) &&
					!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			again := encodeFresh(t, fr)[len(magic):]
			if in := data[at:consumed()]; !bytes.Equal(again, in) {
				t.Fatalf("%s frame %x re-encodes as %x", fr.Kind(), in, again)
			}
		}
	})
}
