// The frame codec. Every integer is big-endian:
//
//	stream      magic, then frames
//	magic       0xC7 'p' 'c', then the protocol version (v3 sent 'w')
//	frame       u32 body length (at most MaxFrame), u8 kind, body
//	Heartbeat   empty
//	Hello       u32 format, u64 heartbeat period in ns
//	Job         the spec's AppendWire bytes
//	Assign      u32 cell, once per cell
//	Result      u32 index, then the payload's AppendWire bytes
//	CellError   u32 index, u8 code, u8 sim (0 or 1), i64 setting,
//	            i64 arch, u32 program length, program, message
//	Fail        message
//	StoreGet    u64 ID, 32-byte key
//	StorePut    u64 ID, 32-byte key, payload
//	StoreReply  u64 ID, u8 found (0 or 1), u32 error length, error, payload
//
// A body decodes on its own, with no state carried between frames, and
// every decoded frame re-encodes to the body it came from.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"portcc/internal/pcerr"
)

// MaxFrame caps one frame's body, in bytes. The largest legitimate frame
// is the Job of a paper-scale grid (35 programs, 1 001 settings, 200
// architectures), as dataset's TestPaperJobFitsFrameCap measures. The
// cap leaves room for grids far past the paper's and still refuses a
// peer claiming a gigabyte before a byte of it is allocated.
const MaxFrame = 64 << 20

// magic opens every stream, ahead of its first frame (the Hello, on any
// real connection). Its first byte can begin neither a gob stream, whose
// first byte is a message length (0x00-0x7F) or a length's byte count
// (0xF8-0xFF), nor a frame header under MaxFrame (0x00-0x04): a v2
// peer's raw gob fails on its first byte. Its last byte is the protocol
// version, so a v3 peer, which sent 'w' there, fails on its fourth.
var magic = [4]byte{0xC7, 'p', 'c', ProtoVersion}

// Frame kinds, the byte after the length.
const (
	kindHeartbeat byte = 1 + iota
	kindHello
	kindJob
	kindAssign
	kindResult
	kindCellError
	kindFail
	kindStoreGet
	kindStorePut
	kindStoreReply
	kindEnd // one past the last kind
)

var kindNames = [kindEnd]string{"empty", "heartbeat", "hello", "job", "assign", "result",
	"cell-error", "fail", "store-get", "store-put", "store-reply"}

func kindName(k byte) string {
	if k >= kindEnd {
		return fmt.Sprintf("kind-%d", k)
	}
	return kindNames[k]
}

const (
	headerLen = 5
	// helloLen is Hello's body: format, heartbeat.
	helloLen = 4 + 8
	// keyLen is the store key width of StoreGet and StorePut.
	keyLen = 32
	// replyHead is StoreReply's fixed part: ID, found flag, error length.
	replyHead = 8 + 1 + 4
	// cellErrorHead is CellError's fixed part: index, code, sim flag,
	// setting, arch, program length.
	cellErrorHead = 4 + 1 + 1 + 8 + 8 + 4
	// readBufSize sizes the buffered reader on the stream.
	readBufSize = 32 << 10
	// bodyStep is the first allocation for a frame body: a larger body
	// grows by at most what has already arrived, so its buffer stays
	// within twice the bytes received plus bodyStep, whatever the
	// length claims.
	bodyStep = 64 << 10
	// keepWriteBuf is the largest frame buffer a Conn keeps for reuse.
	keepWriteBuf = 1 << 20
)

// Conn reads and writes frames on one byte stream. Sends are serialised
// by an internal lock, so result-streaming workers and their heartbeat
// tickers share a connection safely; Recv must stay single-reader. Both
// directions fail sticky: after a failed Send every later Send returns
// the same error, and likewise for Recv, because a stream cut or
// desynchronised mid-frame cannot be resumed.
type Conn struct {
	wmu    sync.Mutex
	w      io.Writer
	wbuf   []byte
	opened bool // the magic has been written
	werr   error

	r     *bufio.Reader
	began bool // the magic has been read
	rerr  error
}

// NewConn wraps a byte stream. Deadlines stay the caller's business: the
// wrapper never touches the underlying net.Conn interface.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{w: rw, r: bufio.NewReaderSize(rw, readBufSize)}
}

// Send writes one frame, whole, with one Write under the write lock.
func (c *Conn) Send(f *Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		return c.werr
	}
	b := c.wbuf[:0]
	if !c.opened {
		b = append(b, magic[:]...)
	}
	b, err := appendFrame(b, f)
	if err == nil {
		_, err = c.w.Write(b)
	}
	if cap(b) <= keepWriteBuf {
		c.wbuf = b[:0]
	}
	if err != nil {
		c.werr = err
		return err
	}
	c.opened = true
	return nil
}

// appendFrame appends f's header and body to b.
func appendFrame(b []byte, f *Frame) ([]byte, error) {
	be := binary.BigEndian
	at := len(b)
	b = append(b, make([]byte, headerLen)...)
	kind := f.kind()
	switch kind {
	case kindHeartbeat:
	case kindHello:
		if !fitsU32(f.Hello.Format) {
			return b, fmt.Errorf("wire: format %d outside the u32 layout", f.Hello.Format)
		}
		b = be.AppendUint32(b, uint32(f.Hello.Format))
		b = be.AppendUint64(b, uint64(f.Hello.Heartbeat))
	case kindJob:
		if f.Job.Spec == nil {
			return b, fmt.Errorf("wire: job without a spec")
		}
		b = f.Job.Spec.AppendWire(b)
	case kindAssign:
		for _, cell := range f.Assign.Cells {
			if !fitsU32(cell) {
				return b, fmt.Errorf("wire: assigned cell %d outside the u32 layout", cell)
			}
			b = be.AppendUint32(b, uint32(cell))
		}
	case kindResult:
		r := f.Result
		if !fitsU32(r.Index) || r.Payload == nil {
			return b, fmt.Errorf("wire: result %d outside the u32 layout or without a payload", r.Index)
		}
		b = be.AppendUint32(b, uint32(r.Index))
		b = r.Payload.AppendWire(b)
	case kindCellError:
		e := f.CellError
		if !fitsU32(e.Index) || e.Code < 0 || e.Code > math.MaxUint8 {
			return b, fmt.Errorf("wire: cell %d error code %d outside the layout", e.Index, e.Code)
		}
		b = be.AppendUint32(b, uint32(e.Index))
		b = append(b, byte(e.Code), flag(e.Sim))
		b = be.AppendUint64(b, uint64(e.Setting))
		b = be.AppendUint64(b, uint64(e.Arch))
		b = be.AppendUint32(b, uint32(len(e.Program)))
		b = append(b, e.Program...)
		b = append(b, e.Msg...)
	case kindFail:
		b = append(b, f.Fail.Msg...)
	case kindStoreGet:
		b = be.AppendUint64(b, f.StoreGet.ID)
		b = append(b, f.StoreGet.Key[:]...)
	case kindStorePut:
		b = be.AppendUint64(b, f.StorePut.ID)
		b = append(b, f.StorePut.Key[:]...)
		b = append(b, f.StorePut.Payload...)
	case kindStoreReply:
		r := f.StoreReply
		b = be.AppendUint64(b, r.ID)
		b = append(b, flag(r.Found))
		b = be.AppendUint32(b, uint32(len(r.Err)))
		b = append(b, r.Err...)
		b = append(b, r.Payload...)
	default:
		return b, fmt.Errorf("wire: empty frame")
	}
	n := len(b) - at - headerLen
	if n > MaxFrame {
		return b, fmt.Errorf("wire: %w: %s frame body of %d bytes over the %d-byte cap",
			pcerr.ErrWireFrame, kindName(kind), n, MaxFrame)
	}
	be.PutUint32(b[at:], uint32(n))
	b[at+4] = kind
	return b, nil
}

// fitsU32 reports whether v fits an unsigned 32-bit field.
func fitsU32(v int) bool { return v >= 0 && uint64(v) <= math.MaxUint32 }

// flag is a bool's one-byte encoding.
func flag(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// Recv reads the next frame. Bytes that are not a legal frame - a length
// over MaxFrame, an unknown kind, a body that does not decode to its
// kind's layout - fail with pcerr.ErrWireFrame; a stream that does not
// open with this version's magic (an older, newer or foreign peer) fails
// with pcerr.ErrWireVersion. A peer closing between frames reads as
// io.EOF, one closing inside a frame as io.ErrUnexpectedEOF. Memory for
// a frame grows with the bytes that actually arrive, never with its
// claimed length. Variable-length fields of a received frame share one
// buffer, owned by the frame.
func (c *Conn) Recv() (*Frame, error) {
	if c.rerr != nil {
		return nil, c.rerr
	}
	f, err := c.recv()
	if err != nil {
		c.rerr = err
		return nil, err
	}
	return f, nil
}

func (c *Conn) recv() (*Frame, error) {
	if !c.began {
		if err := c.readMagic(); err != nil {
			return nil, err
		}
		c.began = true
	}
	var h [headerLen]byte
	if _, err := io.ReadFull(c.r, h[:]); err != nil {
		return nil, err
	}
	n, kind := binary.BigEndian.Uint32(h[:4]), h[4]
	if kind == 0 || kind >= kindEnd {
		return nil, fmt.Errorf("wire: %w: unknown frame kind %d", pcerr.ErrWireFrame, kind)
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: %w: %s frame claims %d bytes, over the %d-byte cap",
			pcerr.ErrWireFrame, kindName(kind), n, MaxFrame)
	}
	body, err := c.readBody(int(n))
	if err != nil {
		return nil, err
	}
	f, err := decodeFrame(kind, body)
	if err != nil {
		return nil, fmt.Errorf("wire: %w: %d-byte %s frame: %v", pcerr.ErrWireFrame, n, kindName(kind), err)
	}
	return f, nil
}

// readMagic checks the stream's opening bytes, judging the first one
// before waiting for the rest.
func (c *Conn) readMagic() error {
	var m [len(magic)]byte
	n := 1
	if _, err := io.ReadFull(c.r, m[:1]); err != nil {
		return err
	}
	if m[0] == magic[0] {
		if _, err := io.ReadFull(c.r, m[1:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if m == magic {
			return nil
		}
		n = len(m)
	}
	return fmt.Errorf("wire: %w: stream opens with %x, not the v%d frame magic %x (an older, newer or foreign peer)",
		pcerr.ErrWireVersion, m[:n], ProtoVersion, magic)
}

// readBody reads an n-byte body, allocating in steps bounded by what has
// already arrived.
func (c *Conn) readBody(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	b := make([]byte, 0, min(n, bodyStep))
	for {
		k, err := io.ReadFull(c.r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+k]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if len(b) == n {
			return b, nil
		}
		b = slices.Grow(b, min(n-len(b), len(b)))
	}
}

// decodeFrame decodes one body by its kind's layout.
func decodeFrame(kind byte, b []byte) (*Frame, error) {
	be := binary.BigEndian
	switch kind {
	case kindHeartbeat:
		if len(b) != 0 {
			return nil, fmt.Errorf("%d-byte body, want none", len(b))
		}
		return &Frame{Heartbeat: true}, nil
	case kindHello:
		if len(b) != helloLen {
			return nil, fmt.Errorf("body %d bytes, want %d", len(b), helloLen)
		}
		return &Frame{Hello: &Hello{Format: int(be.Uint32(b)), Heartbeat: time.Duration(be.Uint64(b[4:]))}}, nil
	case kindJob:
		return &Frame{Job: &Job{Spec: Raw(tail(b))}}, nil
	case kindAssign:
		if len(b)%4 != 0 {
			return nil, fmt.Errorf("body not a whole number of u32 cells")
		}
		a := &Assign{}
		if len(b) > 0 {
			a.Cells = make([]int, len(b)/4)
			for i := range a.Cells {
				a.Cells[i] = int(be.Uint32(b[4*i:]))
			}
		}
		return &Frame{Assign: a}, nil
	case kindResult:
		if len(b) < 4 {
			return nil, fmt.Errorf("body shorter than its index")
		}
		return &Frame{Result: &Result{Index: int(be.Uint32(b)), Payload: Raw(tail(b[4:]))}}, nil
	case kindCellError:
		if len(b) < cellErrorHead || b[5] > 1 {
			return nil, fmt.Errorf("malformed cell-error head")
		}
		m := be.Uint32(b[cellErrorHead-4:])
		if uint64(m) > uint64(len(b)-cellErrorHead) {
			return nil, fmt.Errorf("program name of %d bytes overruns the body", m)
		}
		end := cellErrorHead + int(m)
		return &Frame{CellError: &CellError{
			Index:   int(be.Uint32(b)),
			Code:    int(b[4]),
			Sim:     b[5] == 1,
			Setting: int(int64(be.Uint64(b[6:]))),
			Arch:    int(int64(be.Uint64(b[14:]))),
			Program: string(b[cellErrorHead:end]),
			Msg:     string(b[end:]),
		}}, nil
	case kindFail:
		return &Frame{Fail: &Fail{Msg: string(b)}}, nil
	case kindStoreGet:
		if len(b) != 8+keyLen {
			return nil, fmt.Errorf("body %d bytes, want %d", len(b), 8+keyLen)
		}
		g := &StoreGet{ID: be.Uint64(b)}
		copy(g.Key[:], b[8:])
		return &Frame{StoreGet: g}, nil
	case kindStorePut:
		if len(b) < 8+keyLen {
			return nil, fmt.Errorf("body shorter than its ID and key")
		}
		p := &StorePut{ID: be.Uint64(b), Payload: tail(b[8+keyLen:])}
		copy(p.Key[:], b[8:])
		return &Frame{StorePut: p}, nil
	case kindStoreReply:
		if len(b) < replyHead || b[8] > 1 {
			return nil, fmt.Errorf("malformed reply head")
		}
		m := be.Uint32(b[9:])
		if uint64(m) > uint64(len(b)-replyHead) {
			return nil, fmt.Errorf("error of %d bytes overruns the body", m)
		}
		end := replyHead + int(m)
		return &Frame{StoreReply: &StoreReply{
			ID:      be.Uint64(b),
			Found:   b[8] == 1,
			Err:     string(b[replyHead:end]),
			Payload: tail(b[end:]),
		}}, nil
	}
	return nil, fmt.Errorf("unknown kind")
}

// tail is a trailing variable-length field: empty decodes as nil, the
// way a nil field encodes.
func tail(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}
