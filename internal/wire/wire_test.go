package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"portcc/internal/pcerr"
)

// testPayload stands in for the application work units that cross the
// wire as interface values.
type testPayload struct {
	Name  string
	Cells []int
}

func init() {
	gob.Register(testPayload{})
}

// codecPayload is a Result payload with its own wire codec: its bytes
// cross as they are and arrive as Raw.
type codecPayload string

func (p codecPayload) AppendWire(b []byte) []byte { return append(b, p...) }

// TestFrameRoundTrips pushes one frame of every kind through a Conn pair
// and requires the decoded frame to match field for field, including the
// interface-typed payloads; a payload with a codec arrives as its bytes.
func TestFrameRoundTrips(t *testing.T) {
	frames := []*Frame{
		{Hello: &Hello{Proto: 3, Format: 9, Heartbeat: 250 * time.Millisecond}},
		{Job: &Job{Spec: testPayload{Name: "grid", Cells: []int{0, 1, 2}}}},
		{Assign: &Assign{Cells: []int{4, 7, 19}}},
		{Assign: &Assign{}},
		{Result: &Result{Index: 7, Payload: testPayload{Name: "cell-7"}}},
		{Result: &Result{Index: 8, Payload: codecPayload("cell-8 counters")}},
		{Result: &Result{Index: 9, Payload: Raw("cell-9 counters")}},
		{CellError: &CellError{Index: 3, Msg: "boom", Code: CodeUnknownProgram, Sim: true, Program: "crc", Setting: 2, Arch: 5}},
		{Fail: &Fail{Msg: "refused"}},
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
		if r := want.Result; r != nil {
			if p, ok := r.Payload.(codecPayload); ok {
				want = &Frame{Result: &Result{Index: r.Index, Payload: Raw(p)}}
			}
		}
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

// TestHandshakeProtoMismatch fakes a peer speaking another protocol
// version - the next one, and the previous one, whose jobs numbered
// their cells differently: the rejection must be the wire sentinel,
// distinct from the dataset schema sentinel.
func TestHandshakeProtoMismatch(t *testing.T) {
	for _, proto := range []int{ProtoVersion + 1, ProtoVersion - 1} {
		client, fake := pipePair(t)
		srvErr := make(chan error, 1)
		go func() {
			if _, err := fake.Recv(); err != nil {
				srvErr <- err
				return
			}
			srvErr <- fake.Send(&Frame{Hello: &Hello{Proto: proto, Format: 7}})
		}()
		_, err := client.ClientHello(7)
		if !errors.Is(err, pcerr.ErrWireVersion) {
			t.Errorf("v%d peer: got %v, want ErrWireVersion", proto, err)
		}
		if errors.Is(err, pcerr.ErrDatasetVersion) {
			t.Errorf("v%d peer: proto mismatch also matched ErrDatasetVersion", proto)
		}
		if err := <-srvErr; err != nil {
			t.Fatalf("fake server: %v", err)
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

// v2Frame has the field layout of protocol v2's frame: a v2 peer's
// stream is a raw gob stream of these, with no magic and no lengths.
type v2Frame struct {
	Hello     *Hello
	Job       *Job
	Assign    *Assign
	Result    *Result
	Heartbeat bool
}

// TestV2HelloRefusedTyped: a v2 peer's gob-encoded Hello fails the v3
// handshake on either side with pcerr.ErrWireVersion, not decode noise.
func TestV2HelloRefusedTyped(t *testing.T) {
	v2Hello := func(w io.Writer) {
		gob.NewEncoder(w).Encode(&v2Frame{Hello: &Hello{Proto: 2, Format: 7}})
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

// gobKind reports whether frames of kind k carry a gob body.
func gobKind(k byte) bool {
	switch k {
	case kindHello, kindJob, kindResultGob, kindCellError, kindFail:
		return true
	}
	return false
}

// encodeFresh is f's encoding on a new connection: magic, then the
// frame, gob type definitions included.
func encodeFresh(t *testing.T, f *Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewConn(&buf).Send(f); err != nil {
		t.Fatalf("re-encoding a received %s frame: %v", f.Kind(), err)
	}
	return buf.Bytes()
}

// gobSliceChunk is encoding/gob's own allocation ceiling for a slice it
// has not yet read: it preallocates up to 10 MiB of a claimed length
// before checking the claim against the message. Only gob-carried
// frames can reach it.
const gobSliceChunk = 10 << 20

// FuzzConnRecv feeds arbitrary bytes to Recv until it fails. No input
// may panic; every failure is typed (pcerr.ErrWireFrame,
// pcerr.ErrWireVersion, or io.EOF/io.ErrUnexpectedEOF for a stream that
// ends); and each Recv allocates within a few times the bytes it
// consumed plus a constant - never the length a header claims. A
// fixed-layout frame that decodes re-encodes to its own bytes; a
// gob-carried one re-encodes to a fixed point of decode and encode.
func FuzzConnRecv(f *testing.F) {
	var stream bytes.Buffer
	c := NewConn(&stream)
	for _, fr := range []*Frame{
		{Hello: &Hello{Proto: ProtoVersion, Format: 9, Heartbeat: time.Second}},
		{Job: &Job{Spec: testPayload{Name: "grid", Cells: []int{0, 1, 2}}}},
		{Assign: &Assign{Cells: []int{4, 7, 19}}},
		{Result: &Result{Index: 8, Payload: Raw("counters")}},
		{Result: &Result{Index: 7, Payload: testPayload{Name: "cell-7"}}},
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
	var v2 bytes.Buffer
	gob.NewEncoder(&v2).Encode(&v2Frame{Hello: &Hello{Proto: 2}})
	f.Add(v2.Bytes())

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
			limit := uint64(4*n + bodyStep + 4<<10)
			if gobKind(kind) {
				limit += uint64(64*n + gobSliceChunk)
			}
			if used > limit {
				t.Fatalf("Recv of %d bytes (kind %d) allocated %d, over %d", n, kind, used, limit)
			}
			if err != nil {
				if !errors.Is(err, pcerr.ErrWireFrame) && !errors.Is(err, pcerr.ErrWireVersion) &&
					!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			again := encodeFresh(t, fr)
			if in := data[at:consumed()]; !gobKind(kind) {
				if !bytes.Equal(again[len(magic):], in) {
					t.Fatalf("%s frame %x re-encodes as %x", fr.Kind(), in, again[len(magic):])
				}
				continue
			}
			back, err := NewConn(readWriter{Reader: bytes.NewReader(again)}).Recv()
			if err != nil {
				t.Fatalf("re-encoded %s frame does not decode: %v", fr.Kind(), err)
			}
			if !bytes.Equal(encodeFresh(t, back), again) {
				t.Fatalf("%s frame is no fixed point of decode and encode", fr.Kind())
			}
		}
	})
}
