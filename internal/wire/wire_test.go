package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"net"
	"reflect"
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

// TestFrameRoundTrips pushes one frame of every kind through a Conn pair
// and requires the decoded frame to match field for field, including the
// interface-typed payloads.
func TestFrameRoundTrips(t *testing.T) {
	frames := []*Frame{
		{Hello: &Hello{Proto: 3, Format: 9, Heartbeat: 250 * time.Millisecond}},
		{Job: &Job{Spec: testPayload{Name: "grid", Cells: []int{0, 1, 2}}}},
		{Assign: &Assign{Cells: []int{4, 7, 19}}},
		{Result: &Result{Index: 7, Payload: testPayload{Name: "cell-7"}}},
		{CellError: &CellError{Index: 3, Msg: "boom", Code: CodeUnknownProgram, Sim: true, Program: "crc", Setting: 2, Arch: 5}},
		{Fail: &Fail{Msg: "refused"}},
		{StoreGet: &StoreGet{ID: 11, Key: [32]byte{1, 2, 3}}},
		{StorePut: &StorePut{ID: 12, Key: [32]byte{4, 5}, Payload: []byte("cycles")}},
		{StoreReply: &StoreReply{ID: 11, Found: true, Payload: []byte("cycles")}},
		{StoreReply: &StoreReply{ID: 13, Err: "disk full"}},
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
