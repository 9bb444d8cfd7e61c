package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"sslab/internal/metrics"
	"sslab/internal/ssclient"
	"sslab/internal/ssserver"
)

// serveMethod is the cipher of the real-stack workload.
const serveMethod = "chacha20-ietf-poly1305"

// patternSize is the length of the seeded byte pattern the origin serves
// (cyclically) and clients verify byte for byte.
const patternSize = 1 << 20

// serveShape sizes the real-stack workload: set-up rounds, a closed loop
// of short fetches (one new proxied connection each), then one bulk fetch
// per client.
type serveShape struct {
	clients    int
	setups     int
	fetches    int // short fetches per client
	fetchBytes int
	bulkBytes  int // bulk fetch size per client
}

func serveShapeOf(tiny bool) serveShape {
	// No more clients than CPUs: a closed loop with more callers than
	// cores measures scheduler queueing, not the stack.
	clients := runtime.NumCPU()
	if clients > 2 {
		clients = 2
	}
	if tiny {
		return serveShape{clients: clients, setups: 2, fetches: 40, fetchBytes: 4096, bulkBytes: 256 << 10}
	}
	return serveShape{clients: clients, setups: 3, fetches: 2500, fetchBytes: 4096, bulkBytes: 32 << 20}
}

// stack is one running loopback set-up: a local origin that streams the
// pattern, a Shadowsocks server in front of it, and a client.
type stack struct {
	origin  *origin
	server  *ssserver.Server
	client  *ssclient.Client
	target  string
	pattern []byte
}

func startStack(pattern []byte, password string, reg *metrics.Registry) (*stack, error) {
	o, err := startOrigin(pattern)
	if err != nil {
		return nil, err
	}
	srv, err := ssserver.Listen("127.0.0.1:0", ssserver.Config{Method: serveMethod, Password: password, Metrics: reg})
	if err != nil {
		o.close()
		return nil, err
	}
	cl, err := ssclient.New(ssclient.Config{Server: srv.Addr().String(), Method: serveMethod, Password: password, Metrics: reg})
	if err != nil {
		srv.Close()
		o.close()
		return nil, err
	}
	return &stack{origin: o, server: srv, client: cl, target: o.ln.Addr().String(), pattern: pattern}, nil
}

// close stops the server (waiting for its connection handlers) and the
// origin.
func (s *stack) close() {
	s.server.Close()
	s.origin.close()
}

// fetchTiming is one fetch's latencies from the start of the dial: the
// dial itself, the first response byte, and the last.
type fetchTiming struct {
	dial, first, total time.Duration
}

// fetch opens a proxied connection, asks the origin for n pattern bytes
// starting at off, and verifies every byte received.
func (s *stack) fetch(off, n uint64, buf []byte) (fetchTiming, error) {
	var ft fetchTiming
	t0 := time.Now()
	c, err := s.client.Dial(s.target)
	if err != nil {
		return ft, err
	}
	defer c.Close()
	ft.dial = time.Since(t0)
	var req [16]byte
	binary.BigEndian.PutUint64(req[:8], off)
	binary.BigEndian.PutUint64(req[8:], n)
	if _, err := c.Write(req[:]); err != nil {
		return ft, err
	}
	pos := off % patternSize
	var got uint64
	for got < n {
		k, err := c.Read(buf)
		if k > 0 && got == 0 {
			ft.first = time.Since(t0)
		}
		for rest := buf[:k]; len(rest) > 0; {
			m := len(rest)
			if avail := patternSize - int(pos); m > avail {
				m = avail
			}
			if !bytes.Equal(rest[:m], s.pattern[pos:pos+uint64(m)]) {
				return ft, fmt.Errorf("response byte mismatch at offset %d", got)
			}
			rest = rest[m:]
			pos = (pos + uint64(m)) % patternSize
			got += uint64(m)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return ft, err
		}
	}
	if got != n {
		return ft, fmt.Errorf("got %d of %d response bytes", got, n)
	}
	ft.total = time.Since(t0)
	return ft, nil
}

// load runs `clients` closed-loop callers, each doing count fetches of
// size bytes at seeded offsets; it returns every timing and the errors.
func (s *stack) load(clients, count int, size uint64, seed int64) ([]fetchTiming, []error) {
	var (
		mu     sync.Mutex
		timing []fetchTiming
		errs   []error
		wg     sync.WaitGroup
	)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed + int64(c)))
		go func() {
			defer wg.Done()
			buf := make([]byte, 32<<10)
			mine := make([]fetchTiming, 0, count)
			var bad []error
			for i := 0; i < count; i++ {
				ft, err := s.fetch(uint64(rng.Int63()), size, buf)
				if err != nil {
					bad = append(bad, err)
					continue
				}
				mine = append(mine, ft)
			}
			mu.Lock()
			timing = append(timing, mine...)
			errs = append(errs, bad...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return timing, errs
}

// runServeRep is one real-stack repetition: set-up rounds (each a fresh
// origin, server and client completing one fetch), the short closed-loop
// phase, the bulk phase, and the server/client counter checks.
func runServeRep(j job) (*repResult, error) {
	sh := serveShapeOf(j.Tiny)
	pattern := make([]byte, patternSize)
	rand.New(rand.NewSource(j.Seed)).Read(pattern)
	password := fmt.Sprintf("bench-%d", j.Seed)
	reg := metrics.New()
	res := &repResult{}
	buf := make([]byte, 32<<10)

	var st *stack
	for i := 0; i < sh.setups; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = startStack(pattern, password, reg); err != nil {
			return nil, err
		}
		_, err = st.fetch(0, 64, buf)
		res.SetupS = append(res.SetupS, since(t0))
		res.Attempted++
		if err != nil {
			res.Failed++
			res.errorf("set-up fetch: %v", err)
		}
	}

	prof := &profiler{prefix: j.Profile}
	if err := prof.start(); err != nil {
		st.close()
		return nil, err
	}
	cpu0, t0 := cpuTime(), time.Now()
	short, errs := st.load(sh.clients, sh.fetches, uint64(sh.fetchBytes), j.Seed)
	res.RunS = since(t0)
	t1 := time.Now()
	bulk, bulkErrs := st.load(sh.clients, 1, uint64(sh.bulkBytes), j.Seed+1000)
	bulkS := since(t1)
	res.CPUS = cpuTime() - cpu0
	perr := prof.stop()
	st.close()
	if perr != nil {
		return nil, perr
	}
	errs = append(errs, bulkErrs...)

	res.WindowS = res.RunS + bulkS
	res.WallS = res.WindowS
	res.Ops = int64(len(short))
	res.Attempted += int64(sh.clients * (sh.fetches + 1))
	res.Failed += int64(len(errs))
	for i, err := range errs {
		if i == 3 {
			res.errorf("... %d fetch errors in all", len(errs))
			break
		}
		res.errorf("fetch: %v", err)
	}
	res.PeakRSSMB = peakRSSMB()
	res.Profiles = prof.files
	res.Counters = counters(reg)
	c := res.Counters
	for _, name := range []string{"ssserver.auth_errors", "ssserver.replays_blocked", "ssclient.dial_errors"} {
		if c[name] != 0 {
			res.errorf("%s = %d, want 0", name, c[name])
		}
	}
	if c["ssserver.accepted"] != c["ssclient.dials"] || c["ssserver.proxied"] != c["ssclient.dials"] {
		res.errorf("ssserver.accepted %d / ssserver.proxied %d != ssclient.dials %d",
			c["ssserver.accepted"], c["ssserver.proxied"], c["ssclient.dials"])
	}

	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	var total, dial, first []float64
	for _, ft := range short {
		total = append(total, us(ft.total))
		dial = append(dial, us(ft.dial))
		first = append(first, us(ft.first))
	}
	sort.Float64s(total)
	bulkBytes := float64(len(bulk) * sh.bulkBytes)
	res.Info = map[string]float64{
		"fetch_p50_us":      percentile(total, 0.50),
		"fetch_p99_us":      percentile(total, 0.99),
		"dial_p50_us":       medianOf(dial),
		"first_byte_p50_us": medianOf(first),
		"bulk_mb_per_s":     bulkBytes / 1e6 / bulkS,
		"conns":             float64(c["ssclient.dials"]),
		"response_kib":      (float64(len(short)*sh.fetchBytes) + bulkBytes) / 1024,
	}
	return res, nil
}

// origin is the loopback target: each connection sends a 16-byte request
// (offset, length) and receives that many pattern bytes, then EOF.
type origin struct {
	ln      net.Listener
	pattern []byte
	wg      sync.WaitGroup
}

func startOrigin(pattern []byte) (*origin, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	o := &origin{ln: ln, pattern: pattern}
	o.wg.Add(1)
	go o.serve()
	return o, nil
}

func (o *origin) serve() {
	defer o.wg.Done()
	for {
		c, err := o.ln.Accept()
		if err != nil {
			return
		}
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			o.handle(c)
		}()
	}
}

func (o *origin) handle(c net.Conn) {
	defer c.Close()
	var req [16]byte
	if _, err := io.ReadFull(c, req[:]); err != nil {
		return
	}
	pos := binary.BigEndian.Uint64(req[:8]) % patternSize
	n := binary.BigEndian.Uint64(req[8:])
	for n > 0 {
		chunk := o.pattern[pos:]
		if uint64(len(chunk)) > n {
			chunk = chunk[:n]
		}
		if _, err := c.Write(chunk); err != nil {
			return
		}
		n -= uint64(len(chunk))
		pos = 0
	}
}

// close stops accepting and waits for every in-flight response.
func (o *origin) close() {
	o.ln.Close()
	o.wg.Wait()
}
