package llrp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultPort is LLRP's IANA-registered TCP port.
const DefaultPort = 5084

// DefaultIOTimeout bounds single message reads/writes.
const DefaultIOTimeout = 10 * time.Second

// Conn is a framed LLRP connection. It is safe for one concurrent
// reader and one concurrent writer; SetTimeout may be called from any
// goroutine at any time.
type Conn struct {
	c  net.Conn
	br *bufio.Reader

	writeMu sync.Mutex
	timeout atomic.Int64 // time.Duration in nanoseconds
	nextID  uint32
	idMu    sync.Mutex
}

// NewConn wraps a net.Conn.
func NewConn(c net.Conn) *Conn {
	conn := &Conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
	conn.timeout.Store(int64(DefaultIOTimeout))
	return conn
}

// SetTimeout changes the per-message I/O timeout. Zero disables
// deadlines.
func (c *Conn) SetTimeout(d time.Duration) { c.timeout.Store(int64(d)) }

// Timeout returns the current per-message I/O timeout.
func (c *Conn) Timeout() time.Duration { return time.Duration(c.timeout.Load()) }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// allocID returns a fresh message ID.
func (c *Conn) allocID() uint32 {
	c.idMu.Lock()
	defer c.idMu.Unlock()
	c.nextID++
	return c.nextID
}

// Send writes a message with a freshly allocated ID and returns that ID.
func (c *Conn) Send(typ uint16, payload []byte) (uint32, error) {
	id := c.allocID()
	return id, c.SendWithID(typ, id, payload)
}

// SendWithID writes a message with an explicit ID (used for responses
// that must echo the request ID).
func (c *Conn) SendWithID(typ uint16, id uint32, payload []byte) error {
	hdr, err := MarshalHeader(typ, id, len(payload))
	if err != nil {
		return err
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if d := c.Timeout(); d > 0 {
		if err := c.c.SetWriteDeadline(time.Now().Add(d)); err != nil {
			return fmt.Errorf("llrp: set write deadline: %w", err)
		}
	}
	if _, err := c.c.Write(hdr); err != nil {
		return fmt.Errorf("llrp: write header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := c.c.Write(payload); err != nil {
			return fmt.Errorf("llrp: write payload: %w", err)
		}
	}
	return nil
}

// Recv reads the next message.
func (c *Conn) Recv() (Message, error) {
	if d := c.Timeout(); d > 0 {
		if err := c.c.SetReadDeadline(time.Now().Add(d)); err != nil {
			return Message{}, fmt.Errorf("llrp: set read deadline: %w", err)
		}
	}
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return Message{}, err
	}
	typ, id, total, err := ParseHeader(hdr[:])
	if err != nil {
		return Message{}, err
	}
	payload := make([]byte, total-HeaderLen)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return Message{}, fmt.Errorf("llrp: read payload: %w", err)
	}
	return Message{Type: typ, ID: id, Payload: payload}, nil
}

// Handler processes inbound messages on a server connection. Returning
// an error closes the connection.
type Handler interface {
	Handle(conn *Conn, msg Message) error
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(conn *Conn, msg Message) error

// Handle implements Handler.
func (f HandlerFunc) Handle(conn *Conn, msg Message) error { return f(conn, msg) }

// Server accepts LLRP connections and dispatches messages to a Handler.
// In D-Watch's deployment the *localization server* listens and the
// readers connect to it to forward their backscatter reports.
type Server struct {
	Handler Handler

	mu    sync.Mutex
	ln    net.Listener
	conns map[*Conn]struct{} // live connections, closed by Shutdown

	wg sync.WaitGroup
}

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("llrp: server closed")

// Listen starts listening on addr (e.g. ":5084").
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return ln.Addr(), nil
}

// Serve accepts connections until Shutdown. Each connection is handled
// on its own goroutine; per-message handler errors close only that
// connection.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return errors.New("llrp: Serve before Listen")
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return ErrServerClosed
			}
			return err
		}
		conn := NewConn(nc)
		if !s.track(conn) {
			conn.Close()
			return ErrServerClosed
		}
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			// Greet like an LLRP reader-initiated event channel.
			ev := ReaderEvent{Text: "connection established"}
			if err := conn.SendWithID(MsgReaderEventNotification, 0, ev.Marshal()); err != nil {
				return
			}
			for {
				msg, err := conn.Recv()
				if err != nil {
					return
				}
				if msg.Type == MsgCloseConnection {
					_ = conn.SendWithID(MsgCloseConnectionResponse, msg.ID, nil)
					return
				}
				if s.Handler == nil {
					continue
				}
				if err := s.Handler.Handle(conn, msg); err != nil {
					return
				}
			}
		}()
	}
}

// track registers a freshly accepted connection; it reports false once
// Shutdown has begun, so no connection outlives it.
func (s *Server) track(c *Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return false
	}
	if s.conns == nil {
		s.conns = map[*Conn]struct{}{}
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(c *Conn) {
	c.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Shutdown stops the listener, closes every open connection, and waits
// with the context's deadline for the connection goroutines to return
// (a handler already running is not interrupted).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	ln := s.ln
	s.ln = nil
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Dial connects to an LLRP endpoint and consumes the greeting event.
// It makes a single attempt; DialWith adds retry with configurable
// backoff and a pluggable transport.
func Dial(ctx context.Context, addr string) (*Conn, error) {
	return dialOnce(ctx, addr, nil, 0)
}

// SendKeepalive sends a KEEPALIVE and waits for the ack.
func (c *Conn) SendKeepalive() error {
	id, err := c.Send(MsgKeepalive, nil)
	if err != nil {
		return err
	}
	msg, err := c.Recv()
	if err != nil {
		return err
	}
	if msg.Type != MsgKeepaliveAck || msg.ID != id {
		return fmt.Errorf("llrp: bad keepalive ack (type %d id %d)", msg.Type, msg.ID)
	}
	return nil
}
