package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Times are nanoseconds since the tracer started;
// Op groups the spans of one operation, Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counts holds /metrics or proxy counter deltas taken at the span's
	// boundaries, where the span has any.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pay one nil check per span.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	nextID atomic.Int64
	nextOp atomic.Int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.nextOp.Add(1)
}

// record stores a finished span under a fresh id.
func (t *tracer) record(name string, op, parent int64, start, end time.Time, counts map[string]float64) {
	t.recordAs(t.reserve(), name, op, parent, start, end, counts)
}

// reserve allocates a span id before the span ends, so children can
// name their parent while it is still open.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// recordAs stores a span under an id obtained from reserve.
func (t *tracer) recordAs(id int64, name string, op, parent int64, start, end time.Time, counts map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(), Counts: counts})
	t.mu.Unlock()
}

// layerStat is the per-name summary of a trace.
type layerStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Self  float64 `json:"self_s"`  // total self time
	Total float64 `json:"total_s"` // total duration
}

// summary computes each span name's count, total duration and self
// time: a span's duration minus the part of it its children cover.
func (t *tracer) summary() []layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*layerStat{}
	for _, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			by[s.Name] = st
		}
		dur := float64(s.End - s.Start)
		st.Count++
		st.Total += dur / 1e9
		st.Self += (dur - covered(s, children[s.ID])) / 1e9
	}
	out := make([]layerStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the nanoseconds of parent's interval that at least one
// child overlaps.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return float64(total)
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// proxy is a loopback TCP relay in front of the server that counts the
// bytes and wire frames (4-byte big-endian length plus payload) crossing
// it in both directions, and times the server's side of each exchange.
// An exchange runs from the first client frame after a server frame to
// the last server frame before the next client frame, so for a request
// it spans reading, queueing and handling at the server. A proxy serves
// one client connection.
type proxy struct {
	ln     net.Listener
	target string
	bytes  atomic.Int64
	frames atomic.Int64

	exMu     sync.Mutex
	exStart  time.Time     // first client frame of the open exchange
	lastDown time.Time     // last server frame
	exClosed time.Duration // summed length of the closed exchanges

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	wg     sync.WaitGroup
}

func startProxy(target string) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *proxy) addr() string { return p.ln.Addr().String() }

func (p *proxy) counts() (bytes, frames int64) { return p.bytes.Load(), p.frames.Load() }

// serverTime is the summed length of the exchanges so far, the open one
// up to its last server frame.
func (p *proxy) serverTime() time.Duration {
	p.exMu.Lock()
	defer p.exMu.Unlock()
	t := p.exClosed
	if p.lastDown.After(p.exStart) {
		t += p.lastDown.Sub(p.exStart)
	}
	return t
}

// frameAt records when a whole frame arrived from the client (up) or
// from the server.
func (p *proxy) frameAt(up bool, t time.Time) {
	p.exMu.Lock()
	defer p.exMu.Unlock()
	switch {
	case !up:
		p.lastDown = t
	case p.exStart.IsZero():
		p.exStart = t
	case p.lastDown.After(p.exStart):
		p.exClosed += p.lastDown.Sub(p.exStart)
		p.exStart = t
	}
}

func (p *proxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			s.Close()
			return
		}
		p.conns = append(p.conns, c, s)
		p.wg.Add(2)
		p.mu.Unlock()
		go p.relay(c, s, true)
		go p.relay(s, c, false)
	}
}

// relay forwards whole frames from src to dst, counting and timing each
// one before it is written so a reader that has seen a frame also sees
// its count. up marks the client-to-server direction.
func (p *proxy) relay(src, dst net.Conn, up bool) {
	defer p.wg.Done()
	defer src.Close()
	defer dst.Close()
	r := bufio.NewReader(src)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		buf := make([]byte, 4+binary.BigEndian.Uint32(hdr[:]))
		copy(buf, hdr[:])
		if _, err := io.ReadFull(r, buf[4:]); err != nil {
			return
		}
		p.frameAt(up, time.Now())
		p.bytes.Add(int64(len(buf)))
		p.frames.Add(1)
		if _, err := dst.Write(buf); err != nil {
			return
		}
	}
}

// close stops accepting, drops every relayed connection and waits for
// the relay goroutines to exit.
func (p *proxy) close() {
	p.ln.Close()
	p.mu.Lock()
	p.closed = true
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
