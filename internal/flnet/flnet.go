// Package flnet runs federated learning over real TCP connections: a
// central aggregation server and one process (or goroutine) per client,
// exchanging the same wire payloads the in-process simulator meters
// (internal/comm). The algorithms themselves live in internal/algo —
// the identical Aggregator/Trainer cores the simulator (internal/fl)
// drives in-process — so a federation produces bitwise-identical models
// whichever transport carries it (see the cross-transport equivalence
// test). flnet adds what a real network demands: framing, read/write
// deadlines, and straggler tolerance — a round aggregates whatever
// arrived before the timeout instead of aborting the federation.
//
// The protocol is deliberately small: length-prefixed frames carrying a
// message type, a round number, and an opaque payload whose encoding is
// owned by the algorithm layer (dense or sparse comm payloads).
package flnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"time"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/telemetry"
)

// Message types.
const (
	// MsgHello registers a client: payload is 4 bytes of training-set
	// size (for data-weighted aggregation).
	MsgHello = uint8(iota + 1)
	// MsgRoundStart carries the server's broadcast for a round.
	MsgRoundStart
	// MsgUpdate carries a client's upload for a round.
	MsgUpdate
	// MsgDone carries the final model; the client disconnects after it.
	MsgDone
	// MsgEdgeHello registers an edge aggregator with a tree root: the
	// frame's Client field carries the shard ID, the payload a count
	// followed by (client ID, train size) pairs for the shard's clients.
	MsgEdgeHello
	// MsgShardUpdate carries an edge's pooled shard payload for a round
	// (algo.ShardBuffer wire format); Client is the shard ID.
	MsgShardUpdate
)

// maxFrame bounds a frame to guard against corrupt length prefixes.
const maxFrame = 1 << 30

// frameHeaderLen is the wire overhead per frame: uint32 length prefix
// plus type, client and round fields.
const frameHeaderLen = 4 + 1 + 4 + 4

// Frame is one protocol message.
type Frame struct {
	Type    uint8
	Client  uint32
	Round   uint32
	Payload []byte

	// body is the pooled backing buffer Payload slices into (nil for
	// frames not produced by ReadFrame).
	body []byte
}

// Release returns the frame's pooled backing buffer. Call it once the
// payload has been consumed; the Payload slice is invalid afterwards.
func (f *Frame) Release() {
	if f.body != nil {
		comm.PutBuf(f.body)
		f.body = nil
		f.Payload = nil
	}
}

// WriteFrame writes f to w: uint32 total length, type, client, round,
// payload. The header goes through a pooled scratch buffer, so steady
// rounds allocate nothing.
func WriteFrame(w io.Writer, f Frame) error {
	header := comm.GetBuf(frameHeaderLen)
	binary.LittleEndian.PutUint32(header[0:4], uint32(1+4+4+len(f.Payload)))
	header[4] = f.Type
	binary.LittleEndian.PutUint32(header[5:9], f.Client)
	binary.LittleEndian.PutUint32(header[9:13], f.Round)
	_, err := w.Write(header)
	comm.PutBuf(header)
	if err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame from r into a pooled body buffer; call
// Release on the returned frame once its payload is consumed.
func ReadFrame(r io.Reader) (Frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < 9 || n > maxFrame {
		return Frame{}, fmt.Errorf("flnet: implausible frame length %d", n)
	}
	body := comm.GetBuf(int(n))
	if _, err := io.ReadFull(r, body); err != nil {
		comm.PutBuf(body)
		return Frame{}, err
	}
	return Frame{
		Type:    body[0],
		Client:  binary.LittleEndian.Uint32(body[1:5]),
		Round:   binary.LittleEndian.Uint32(body[5:9]),
		Payload: body[9:],
		body:    body,
	}, nil
}

// Aggregator is the transport-agnostic server-side algorithm core; see
// internal/algo.
type Aggregator = algo.Aggregator

// Trainer is the transport-agnostic client-side algorithm core; see
// internal/algo.
type Trainer = algo.Trainer

// ServerConfig configures a federation server.
type ServerConfig struct {
	// Addr to listen on; ":0" picks a free port.
	Addr string
	// Clients is the number of registrations to wait for.
	Clients int
	// Rounds of federated training to run.
	Rounds int
	// PerRound is how many clients participate each round (0 = all).
	PerRound int
	// Seed drives client sampling.
	Seed int64

	// HelloTimeout bounds how long an accepted connection may take to
	// present its hello frame. Zero waits forever.
	HelloTimeout time.Duration
	// StragglerTimeout bounds how long the server waits for a selected
	// client's round upload. In synchronous rounds a client that misses
	// the deadline is marked dead and its contribution dropped — the
	// round aggregates from the clients that reported instead of failing
	// the federation; in async quorum rounds the deadline closes the
	// round. It also bounds the wait for uploads still owed after the
	// last round. Zero waits forever.
	StragglerTimeout time.Duration
	// WriteTimeout bounds each broadcast write to a client. Zero waits
	// forever.
	WriteTimeout time.Duration

	// Quorum, when positive, switches the server to buffered/async
	// rounds (FedBuff-style): FinishRound fires as soon as Quorum of
	// the round's sampled uploads have been collected, without waiting
	// for the stragglers. A straggler's upload is not lost — it folds
	// into the round in progress when it eventually arrives, counted in
	// "flnet.late_uploads" and journaled as a late_upload event. Zero
	// keeps the synchronous round loop.
	Quorum int

	// Tel, when set, receives the server's lifecycle journal events and
	// exposes its drop/error counters through the registry; it is also
	// wired into the aggregator core. Nil disables telemetry.
	Tel *telemetry.Set
}

// ClientStats is the server's per-client health record.
type ClientStats struct {
	ID        uint32
	TrainSize int
	// Alive reports whether the connection was still usable when the
	// federation ended.
	Alive bool
	// Drops counts rounds where the client was selected but its
	// contribution was not aggregated (dead, timed out, or errored).
	Drops int
	// Errors counts protocol or I/O failures observed on the connection
	// (a straggler timeout alone is a drop, not an error).
	Errors int
}

// Server orchestrates rounds over TCP.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	clients []*clientConn

	// Stats, populated by Run. UpBytes/DownBytes count full frames
	// (headers included); the *PayloadBytes variants count algorithm
	// payloads only, matching the in-process simulator's comm.Meter.
	UpBytes          int64
	DownBytes        int64
	UpPayloadBytes   int64
	DownPayloadBytes int64

	// drops/errs aggregate the per-client counters below as telemetry
	// counters, attached in the registry as "flnet.drops" and
	// "flnet.errors" when telemetry is on; Drops/Errors read the same
	// counters.
	drops telemetry.Counter
	errs  telemetry.Counter
	// late counts straggler uploads folded into a later round than the
	// one they were computed for (async quorum mode only), exposed as
	// "flnet.late_uploads".
	late telemetry.Counter
	// pending counts uploads drained after the last round — owed when it
	// closed, so never folded — exposed as "flnet.pending_uploads".
	pending telemetry.Counter
}

// Drops reports total dropped contributions across all clients and
// rounds — the same counter the registry exposes as "flnet.drops".
func (s *Server) Drops() int64 { return s.drops.Value() }

// Errors reports total protocol/I-O failures across all clients — the
// same counter the registry exposes as "flnet.errors".
func (s *Server) Errors() int64 { return s.errs.Value() }

// LateUploads reports how many straggler uploads were folded into a
// later round (async quorum mode) — the same counter the registry
// exposes as "flnet.late_uploads".
func (s *Server) LateUploads() int64 { return s.late.Value() }

// Pending reports how many uploads arrived after the federation's last
// round closed (async quorum stragglers drained before MsgDone) — the
// TCP twin of fl.Sim.Pending, exposed as "flnet.pending_uploads".
func (s *Server) Pending() int64 { return s.pending.Value() }

// NewServer starts listening (so clients can connect before Run).
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Clients <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("flnet: Clients and Rounds must be positive")
	}
	if cfg.PerRound <= 0 || cfg.PerRound > cfg.Clients {
		cfg.PerRound = cfg.Clients
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, ln: ln}
	if cfg.Tel != nil && cfg.Tel.Reg != nil {
		cfg.Tel.Reg.Attach("flnet.drops", &s.drops)
		cfg.Tel.Reg.Attach("flnet.errors", &s.errs)
		cfg.Tel.Reg.Attach("flnet.late_uploads", &s.late)
		cfg.Tel.Reg.Attach("flnet.pending_uploads", &s.pending)
	}
	return s, nil
}

// Addr returns the listening address (use after NewServer with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ClientStats returns the per-client health records. Call after Run.
func (s *Server) ClientStats() []ClientStats {
	out := make([]ClientStats, len(s.clients))
	for i, c := range s.clients {
		out[i] = ClientStats{
			ID: c.id, TrainSize: c.trainSize, Alive: c.alive,
			Drops: c.drops, Errors: c.errs,
		}
	}
	return out
}

// clientConn is the server's view of one registered client.
type clientConn struct {
	id        uint32
	trainSize int
	conn      net.Conn
	alive     bool
	drops     int
	errs      int
	owed      int // broadcasts sent without an upload back yet
}

// markDead closes the connection and excludes the client from future
// traffic; its sampling slot stays occupied and counts drops.
func (c *clientConn) markDead() {
	if c.alive {
		c.alive = false
		c.conn.Close()
	}
}

// Run accepts registrations, executes the round loop (synchronous, or
// buffered/async when cfg.Quorum is set), drains the uploads still owed
// and broadcasts the final model. A malformed hello still fails fast —
// the federation has not started — but once rounds begin, client
// failures and stragglers are tolerated: their contributions are
// dropped (see ClientStats) and each round aggregates whatever arrived.
// Run errors only when every client is dead.
func (s *Server) Run(agg Aggregator) error {
	defer s.ln.Close()
	if err := s.acceptClients(); err != nil {
		return err
	}
	defer func() {
		for _, c := range s.clients {
			c.conn.Close()
		}
	}()
	algo.Wire(s.cfg.Tel, agg)
	arrivals := s.startReaders()
	if err := s.runRounds(agg, arrivals); err != nil {
		return err
	}
	s.drain(arrivals)
	return s.sendFinal(agg)
}

// acceptClients waits for every registration and orders the client
// table by ID, so collect order is reproducible across runs.
func (s *Server) acceptClients() error {
	s.clients = make([]*clientConn, 0, s.cfg.Clients)
	for len(s.clients) < s.cfg.Clients {
		conn, err := s.ln.Accept()
		if err != nil {
			return fmt.Errorf("flnet: accept: %w", err)
		}
		if s.cfg.HelloTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.HelloTimeout))
		}
		f, err := ReadFrame(conn)
		if err != nil || f.Type != MsgHello || len(f.Payload) < 4 {
			conn.Close()
			f.Release()
			return fmt.Errorf("flnet: bad hello from %s: %v", conn.RemoteAddr(), err)
		}
		conn.SetReadDeadline(time.Time{})
		s.UpBytes += int64(frameHeaderLen + len(f.Payload))
		s.clients = append(s.clients, &clientConn{
			id:        f.Client,
			trainSize: int(binary.LittleEndian.Uint32(f.Payload)),
			conn:      conn,
			alive:     true,
		})
		f.Release()
	}
	// Clients register in connection order, which is not reproducible;
	// aggregate in client-ID order so collect order — and therefore the
	// floating-point reduction — matches the in-process simulator bitwise.
	sort.Slice(s.clients, func(i, j int) bool { return s.clients[i].id < s.clients[j].id })
	return nil
}

// arrival is one frame (or terminal read error) from a persistent
// per-client reader goroutine.
type arrival struct {
	ci    int // index into s.clients
	frame Frame
	err   error
}

// startReaders starts one persistent reader per client connection. They
// outlive rounds: a straggler's upload must be readable after its round
// closed. Capacity absorbs a burst of one pending upload plus the
// terminal error per client; a full channel simply backpressures that
// client's reader.
func (s *Server) startReaders() <-chan arrival {
	arrivals := make(chan arrival, 4*len(s.clients)+8)
	for ci, c := range s.clients {
		go func(ci int, c *clientConn) {
			for {
				f, err := ReadFrame(c.conn)
				arrivals <- arrival{ci: ci, frame: f, err: err}
				if err != nil {
					return
				}
			}
		}(ci, c)
	}
	return arrivals
}

// runRounds is the round loop. Each round broadcasts to the selected
// live clients and folds every upload the moment its frame arrives (the
// aggregator's cursor restores the canonical fold order, and the frame
// recycles at once), until the close rule ends the round:
//
//   - synchronous (Quorum zero): every awaited upload has resolved. A
//     client still owing its upload at the StragglerTimeout deadline is
//     a straggler: marked dead, counted as a drop and journaled
//     straggler_timeout.
//   - buffered/async (Quorum K, FedBuff-style): K on-time uploads have
//     arrived, or the deadline passed. The round does not wait for its
//     slowest client: a straggler's work is not discarded but folds
//     into whatever round is in progress when it lands (a "late
//     upload", counted in "flnet.late_uploads"). Stragglers are not
//     drops.
//
// The shared algo.Round journals every round in canonical order, so
// both modes emit their events in selection order whatever the
// arrival order.
func (s *Server) runRounds(agg Aggregator, arrivals <-chan arrival) error {
	rng := newRng(s.cfg.Seed)
	r := algo.NewRound(agg, s.cfg.Tel)
	// posOf maps a client index to the selection position still owed an
	// upload this round, or -1.
	posOf := make([]int, len(s.clients))
	for i := range posOf {
		posOf[i] = -1
	}
	for round := 0; round < s.cfg.Rounds; round++ {
		payload := agg.Broadcast(round)
		selected := samplePerm(rng, len(s.clients), s.cfg.PerRound)
		sel := make([]algo.Upload, len(selected))
		for pos, ci := range selected {
			sel[pos] = algo.Upload{Client: s.clients[ci].id, TrainSize: s.clients[ci].trainSize}
		}
		r.Begin(round, sel, len(payload))
		awaited := 0
		for pos, ci := range selected {
			c := s.clients[ci]
			if !c.alive {
				s.drop(c)
				r.Drop(pos)
				continue
			}
			if s.cfg.WriteTimeout > 0 {
				c.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			}
			f := Frame{Type: MsgRoundStart, Client: c.id, Round: uint32(round), Payload: payload}
			if err := WriteFrame(c.conn, f); err != nil {
				s.fail(c)
				s.drop(c)
				r.Drop(pos)
				continue
			}
			s.DownBytes += int64(frameHeaderLen + len(payload))
			s.DownPayloadBytes += int64(len(payload))
			c.owed++
			posOf[ci] = pos
			awaited++
		}

		want := awaited
		if s.cfg.Quorum > 0 && s.cfg.Quorum < want {
			want = s.cfg.Quorum
		}
		timer, deadline := s.stragglerTimer()
		onTime := 0
	recv:
		for onTime < want {
			var a arrival
			select {
			case a = <-arrivals:
			case <-deadline:
				break recv
			}
			c := s.clients[a.ci]
			pos := posOf[a.ci]
			switch {
			case !c.alive:
				// Terminal error or leftover of a connection we closed.
			case a.err == nil && a.frame.Type == MsgUpdate && int(a.frame.Round) == round && pos >= 0:
				posOf[a.ci] = -1
				c.owed--
				awaited--
				onTime++
				s.UpBytes += int64(frameHeaderLen + len(a.frame.Payload))
				s.UpPayloadBytes += int64(len(a.frame.Payload))
				r.Collect(pos, a.frame.Payload, r.Elapsed())
			case a.err == nil && a.frame.Type == MsgUpdate && int(a.frame.Round) < round && c.owed > 0:
				// A straggler's upload from an earlier round: fold it
				// into the round in progress instead of discarding the
				// client's work. It bypasses the fold cursor — the
				// straggler may ALSO be selected this round and still
				// owe a fresh upload for its own slot.
				c.owed--
				s.late.Inc()
				s.UpBytes += int64(frameHeaderLen + len(a.frame.Payload))
				s.UpPayloadBytes += int64(len(a.frame.Payload))
				r.Late(algo.Upload{Client: c.id, TrainSize: c.trainSize, Payload: a.frame.Payload})
			default:
				// I/O failure, malformed or future-round frame, a
				// same-round duplicate or an upload nobody asked for:
				// the connection is unusable, and an owed upload is lost.
				s.fail(c)
				if pos >= 0 {
					posOf[a.ci] = -1
					awaited--
					s.drop(c)
					r.Drop(pos)
					want = min(want, awaited+onTime)
				}
			}
			a.frame.Release()
		}
		if timer != nil {
			timer.Stop()
		}
		for pos, ci := range selected {
			if posOf[ci] != pos {
				continue
			}
			posOf[ci] = -1
			if s.cfg.Quorum == 0 {
				c := s.clients[ci]
				c.markDead()
				s.drop(c)
				r.Straggler(pos)
			} // else deferred: its upload folds late into a later round
		}
		if s.cfg.Quorum > 0 && want > 0 && onTime >= want {
			r.MetQuorum()
		}
		r.Finish(s.UpPayloadBytes, s.DownPayloadBytes)

		anyAlive := false
		for _, c := range s.clients {
			if c.alive {
				anyAlive = true
				break
			}
		}
		if !anyAlive {
			return fmt.Errorf("flnet: all %d clients dead after round %d", len(s.clients), round)
		}
	}
	return nil
}

// drain ends the federation cleanly: before MsgDone it waits, bounded
// by StragglerTimeout, for every broadcast still owed an upload — the
// stragglers of an async quorum round — so no client is cut off
// mid-write. Drained uploads arrive too late for any round; they are
// counted in Pending ("flnet.pending_uploads"), never folded and never
// counted as drops. With no StragglerTimeout the wait is unbounded, as
// for every other upload.
func (s *Server) drain(arrivals <-chan arrival) {
	owed := 0
	for _, c := range s.clients {
		if c.alive {
			owed += c.owed
		}
	}
	if owed == 0 {
		return
	}
	timer, deadline := s.stragglerTimer()
	if timer != nil {
		defer timer.Stop()
	}
	for owed > 0 {
		var a arrival
		select {
		case a = <-arrivals:
		case <-deadline:
			return
		}
		c := s.clients[a.ci]
		switch {
		case !c.alive:
		case a.err == nil && a.frame.Type == MsgUpdate && c.owed > 0:
			c.owed--
			owed--
			s.pending.Inc()
		default:
			s.fail(c)
			owed -= c.owed
			c.owed = 0
		}
		a.frame.Release()
	}
}

// stragglerTimer starts the StragglerTimeout deadline; both are nil
// (wait forever) when no timeout is configured.
func (s *Server) stragglerTimer() (*time.Timer, <-chan time.Time) {
	if s.cfg.StragglerTimeout <= 0 {
		return nil, nil
	}
	t := time.NewTimer(s.cfg.StragglerTimeout)
	return t, t.C
}

// fail records a protocol or I/O failure on c and closes its connection.
func (s *Server) fail(c *clientConn) {
	c.errs++
	s.errs.Inc()
	c.markDead()
}

// drop records that c's selected contribution was not aggregated.
func (s *Server) drop(c *clientConn) {
	c.drops++
	s.drops.Inc()
}

// sendFinal broadcasts the aggregator's final model to every surviving
// client.
func (s *Server) sendFinal(agg Aggregator) error {
	final := agg.Final()
	for _, c := range s.clients {
		if !c.alive {
			continue
		}
		if s.cfg.WriteTimeout > 0 {
			c.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		f := Frame{Type: MsgDone, Client: c.id, Payload: final}
		if err := WriteFrame(c.conn, f); err != nil {
			s.fail(c)
			continue
		}
		s.DownBytes += int64(frameHeaderLen + len(final))
		s.DownPayloadBytes += int64(len(final))
	}
	return nil
}

// ClientOptions tunes RunClientOpts.
type ClientOptions struct {
	// DialTimeout bounds the TCP connect (default 30s).
	DialTimeout time.Duration
	// HelloTimeout bounds writing the registration frame (default 30s).
	HelloTimeout time.Duration

	// Tel, when set, receives this client's lifecycle events
	// (client_train, client_upload, client_apply) and is wired into the
	// trainer core. Each client owns its set — client events never mix
	// into the server journal.
	Tel *telemetry.Set
}

// RunClient connects to a federation server, participates in every round
// it is sampled for, and returns after receiving the final model. It
// uses the default 30-second dial and hello timeouts.
func RunClient(addr string, clientID uint32, trainSize int, tr Trainer) error {
	return RunClientOpts(addr, clientID, trainSize, tr, ClientOptions{})
}

// RunClientOpts is RunClient with explicit connection timeouts.
func RunClientOpts(addr string, clientID uint32, trainSize int, tr Trainer, opts ClientOptions) error {
	if opts.DialTimeout == 0 {
		opts.DialTimeout = 30 * time.Second
	}
	if opts.HelloTimeout == 0 {
		opts.HelloTimeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	var hello [4]byte
	binary.LittleEndian.PutUint32(hello[:], uint32(trainSize))
	conn.SetWriteDeadline(time.Now().Add(opts.HelloTimeout))
	if err := WriteFrame(conn, Frame{Type: MsgHello, Client: clientID, Payload: hello[:]}); err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Time{})
	tel := opts.Tel
	algo.Wire(tel, tr)
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			return fmt.Errorf("flnet: client %d read: %w", clientID, err)
		}
		switch f.Type {
		case MsgRoundStart:
			round := int(f.Round)
			t0 := time.Now()
			up := tr.LocalUpdate(round, f.Payload)
			tel.Emit(telemetry.ClientTrain(round, int(clientID), time.Since(t0).Nanoseconds()))
			f.Release()
			if err := WriteFrame(conn, Frame{Type: MsgUpdate, Client: clientID, Round: f.Round, Payload: up}); err != nil {
				return err
			}
			tel.Emit(telemetry.ClientSent(round, int(clientID), int64(len(up)), time.Since(t0).Nanoseconds()))
		case MsgDone:
			tr.Finish(f.Payload)
			tel.Emit(telemetry.ClientApply(int(f.Round), int(clientID), int64(len(f.Payload))))
			f.Release()
			return nil
		default:
			f.Release()
			return fmt.Errorf("flnet: client %d: unexpected frame type %d", clientID, f.Type)
		}
	}
}
