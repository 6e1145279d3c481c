package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"raftlib/raft"
)

const (
	gwBatch   = 32 // lines per request
	gwLineLen = 64 // bytes per line: 16 hex due time, 8 hex request id, seeded filler
	gwSource  = "lines"
	// gwSpanEvery samples which requests leave client.request and sink.item
	// spans in the trace file; the latency percentiles use every request.
	gwSpanEvery = 64
	// gwLimitMs is the p99 latency limit of gateway.sustained_rps.
	gwLimitMs = 50.0
)

// gwRates are the open-loop request rates r1 < r2 < r3: about 20, 40 and
// 60 % of the closed-loop capacity (gateway.closed_loop_rps, 12.4k req/s)
// measured once on the 2-core reference host, then frozen so that every
// commit is offered the same load.
var gwRates = [3]float64{2500, 5000, 7500}

// lineInfo is what the relay extracts from one line for the sink.
type lineInfo struct {
	Len int32
	Req int32
	Due int64
}

const hexDigits = "0123456789abcdef"

func putHex(dst []byte, v uint64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = hexDigits[v&15]
		v >>= 4
	}
}

func parseHex(b []byte) (v uint64) {
	for _, c := range b {
		v <<= 4
		if c >= 'a' {
			v |= uint64(c-'a') + 10
		} else {
			v |= uint64(c - '0')
		}
	}
	return v
}

// gwRig is one running gateway graph:
// Source[[]byte] -> relay (line -> lineInfo) -> sink.
type gwRig struct {
	gw     *raft.Gateway
	src    *raft.Source[[]byte]
	ex     *raft.Execution
	kts    []*ktrace
	ports  portSums
	exe    uint64
	endExe func()
	start  time.Time
	build  time.Duration

	// batchDone[conn] receives a token when the sink has seen the last line
	// of one of that connection's batches; a closed-loop client waits for it.
	batchDone []chan struct{}

	// Sink-owned until Wait returns.
	lines, lineBytes int64
	seen             []int64 // lines per connection
	itemLatMs        []float64
}

// reqID packs the connection into the top byte of a request id, so the sink
// can tell whose batch a line belongs to.
func reqID(conn int, i int64) int32 { return int32(conn)<<24 | int32(i) }

// startGateway builds the graph and starts it; when it returns the gateway
// is wired and serving. expect sizes the sink's latency log.
func startGateway(e *env, run uint64, expect int64) (*gwRig, error) {
	conns := runtime.GOMAXPROCS(0)
	r := &gwRig{itemLatMs: make([]float64, 0, expect), seen: make([]int64, conns), batchDone: make([]chan struct{}, conns)}
	for i := range r.batchDone {
		r.batchDone[i] = make(chan struct{}, 1) // one batch per connection is in flight in a closed loop
	}
	_, endBuild := e.tr.begin("build", run)
	buildStart := time.Now()
	gw, err := raft.NewGateway(raft.GatewayConfig{})
	if err != nil {
		return nil, err
	}
	r.gw, r.src = gw, raft.NewSource[[]byte](gwSource)
	err = raft.BindSourceAppend(gw, r.src, func(p []byte, buf [][]byte) ([][]byte, error) {
		for len(p) > 0 {
			line := p
			if i := bytes.IndexByte(p, '\n'); i >= 0 {
				line, p = p[:i], p[i+1:]
			} else {
				p = nil
			}
			if len(line) != gwLineLen {
				return nil, fmt.Errorf("line of %d bytes, want %d", len(line), gwLineLen)
			}
			buf = append(buf, line)
		}
		return buf, nil
	})
	if err != nil {
		return nil, err
	}
	krelay, ksink := e.tr.kernel("relay"), e.tr.kernel("sink")
	relay := raft.NewLambdaIO[[]byte, lineInfo](1, 1, func(k *raft.LambdaKernel) raft.Status {
		sampled := krelay.sample()
		line, err := raft.Pop[[]byte](k.In("0"))
		if sampled {
			krelay.port(false, krelay.runStart)
		}
		if err != nil {
			return raft.Stop
		}
		info := lineInfo{Len: int32(len(line)), Due: int64(parseHex(line[:16])), Req: int32(parseHex(line[16:24]))}
		var t int64
		if sampled {
			t = time.Now().UnixNano()
		}
		err = raft.Push(k.Out("0"), info)
		if sampled {
			krelay.done(krelay.port(true, t))
		}
		if err != nil {
			return raft.Stop
		}
		return raft.Proceed
	})
	relay.SetName("relay")
	sink := raft.NewLambdaIO[lineInfo, lineInfo](1, 0, func(k *raft.LambdaKernel) raft.Status {
		sampled := ksink.sample()
		info, err := raft.Pop[lineInfo](k.In("0"))
		if sampled {
			ksink.done(ksink.port(false, ksink.runStart))
		}
		if err != nil {
			return raft.Stop
		}
		now := time.Now().UnixNano()
		r.lines++
		r.lineBytes += int64(info.Len)
		r.itemLatMs = append(r.itemLatMs, float64(now-info.Due)/1e6)
		conn := info.Req >> 24
		if r.seen[conn]++; r.seen[conn]%gwBatch == 0 {
			select {
			case r.batchDone[conn] <- struct{}{}:
			default: // an open-loop client does not collect tokens
			}
		}
		if ksink != nil && info.Req%gwSpanEvery == 0 {
			ksink.buf = append(ksink.buf, span{name: "sink.item", tid: ksink.tid, start: info.Due, end: now, id: ksink.t.newID(), req: int64(info.Req)})
		}
		return raft.Proceed
	})
	sink.SetName("sink")
	m := raft.NewMap()
	// An open-loop tenant that was held up (a GC cycle, a host hiccup) sends
	// the requests it owes back to back. Cap(1<<16) puts the gateway's
	// default occupancy shed line (75 %) at 1536 batches, 0.3 s of load at
	// r2, so such a burst is queued, not refused: admission shedding is a
	// correctness property tested elsewhere, and a refused request here
	// would be a failed operation. In steady state the ring holds a batch
	// or two.
	if _, err := m.Link(r.src, relay, raft.Cap(1<<16)); err != nil {
		return nil, err
	}
	if _, err := m.Link(relay, sink); err != nil {
		return nil, err
	}
	r.build = time.Since(buildStart)
	endBuild()
	r.kts = []*ktrace{krelay, ksink}
	r.exe, r.endExe = e.tr.begin("exe", run)
	r.start = time.Now()
	if r.ex, err = m.ExeAsync(raft.WithGateway(gw)); err != nil {
		return nil, err
	}
	return r, nil
}

// stop ends the intake, waits for the graph to drain and returns its Report
// and the Exe wall time.
func (r *gwRig) stop() (*raft.Report, time.Duration, error) {
	r.src.CloseIntake()
	rep, err := r.ex.Wait()
	wall := time.Since(r.start)
	r.endExe()
	for _, k := range r.kts {
		k.flush(r.exe, &r.ports)
	}
	return rep, wall, err
}

// gwClient is one tenant on one keep-alive connection.
type gwClient struct {
	hc      *http.Client
	url     string
	tenant  string
	payload []byte
	tr      *tracer
	tid     int32

	sent, accepted int64
	latMs          []float64
	spans          []span
}

func newGwClient(e *env, addr string, conn int, expect int64) *gwClient {
	c := &gwClient{
		hc:     &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second},
		url:    "http://" + addr + "/v1/ingest/" + gwSource,
		tenant: fmt.Sprintf("tenant-%d", conn),
		latMs:  make([]float64, 0, expect),
		tr:     e.tr,
	}
	if e.tr != nil {
		c.tid = e.tr.thread("client-" + c.tenant)
	}
	rng := rand.New(rand.NewSource(int64(e.seed)*131 + int64(conn)))
	c.payload = make([]byte, 0, gwBatch*(gwLineLen+1))
	for l := 0; l < gwBatch; l++ {
		if l > 0 {
			c.payload = append(c.payload, '\n')
		}
		for b := 0; b < gwLineLen; b++ {
			c.payload = append(c.payload, 'a'+byte(rng.Intn(26)))
		}
	}
	return c
}

// stamp writes due and req into every line of the payload.
func (c *gwClient) stamp(req int32, due time.Time) {
	for l := 0; l < gwBatch; l++ {
		line := c.payload[l*(gwLineLen+1):]
		putHex(line[:16], uint64(due.UnixNano()))
		putHex(line[16:24], uint64(req))
	}
}

// post sends one batch whose lines all carry due and req, and times it from
// due: in an open loop that counts the wait a stall imposes on later
// requests, in a closed loop due is the moment of sending. It reports
// whether the gateway accepted the batch.
func (c *gwClient) post(req int32, due time.Time) bool {
	c.stamp(req, due)
	hr, err := http.NewRequest("POST", c.url, bytes.NewReader(c.payload))
	if err != nil {
		panic(err) // constant method and URL: a bug
	}
	hr.Header.Set("X-Raft-Tenant", c.tenant)
	sent := time.Now()
	c.sent++
	resp, err := c.hc.Do(hr)
	ok := false
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
		resp.Body.Close()
		if ok = resp.StatusCode == http.StatusAccepted; ok {
			c.accepted++
		}
	}
	done := time.Now()
	c.latMs = append(c.latMs, float64(done.Sub(due).Nanoseconds())/1e6)
	if c.tr != nil && req%gwSpanEvery == 0 {
		id := c.tr.newID()
		c.spans = append(c.spans,
			span{name: "client.request", tid: c.tid, start: due.UnixNano(), end: done.UnixNano(), id: id, req: int64(req)},
			span{name: "client.send", tid: c.tid, start: sent.UnixNano(), end: done.UnixNano(), id: c.tr.newID(), parent: id, req: int64(req)})
	}
	return ok
}

// drive runs one function per connection concurrently and waits for all.
func driveClients(clients []*gwClient, each func(conn int, c *gwClient)) {
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *gwClient) {
			defer wg.Done()
			each(i, c)
		}(i, c)
	}
	wg.Wait()
}

// gwOutcome checks the gateway oracle and fills the outcome: every request
// accepted, and the lines the sink saw are exactly the admitted ones (by
// the clients' count and by the gateway's own Report).
func gwOutcome(o *outcome, rig *gwRig, rep *raft.Report, clients []*gwClient) {
	var sent, accepted int64
	for _, c := range clients {
		sent += c.sent
		accepted += c.accepted
		c.tr.add(c.spans...)
		c.hc.CloseIdleConnections()
	}
	var admitted int64
	if rep.Gateway != nil {
		for _, t := range rep.Gateway.Tenants {
			admitted += int64(t.AdmittedElems)
		}
	}
	lines := rig.lines
	o.items, o.bytes = lines, rig.lineBytes
	o.attempted = sent
	o.failed = sent - accepted
	if lines != accepted*gwBatch || admitted != lines || rig.lineBytes != lines*gwLineLen {
		o.failed += max(1, max(lines-accepted*gwBatch, accepted*gwBatch-lines)/gwBatch)
	}
	o.reports = []*raft.Report{rep}
	o.ports, o.lanes = rig.ports, len(rig.kts)
}

// gwPhase is what one open-loop window at one rate measured.
type gwPhase struct {
	reqLatMs, itemLatMs, lagMs []float64
	sent, accepted             int64
	backlogMid, backlogEnd     int64
}

// runGateway is the gateway workload: nproc tenants, one keep-alive
// connection each, offering gwRates[1] requests per second of 32 lines in an
// open loop (independent tenants do not wait for each other), n requests
// per connection. At 40 % of capacity the ring is nearly empty and the
// consumer sleeps between batches, so net/http, admission, Source inject
// and the wake path are the work: the opposite regime from scalar.
func runGateway(e *env, n int64) (outcome, error) { return openLoop(e, gwRates[1], n) }

// openLoop offers rate requests per second, perConn requests from each of
// nproc tenants, each tenant on its own schedule with a seeded phase offset
// (the tenant interleave), on a fresh graph. Every request is timed from
// its due time.
func openLoop(e *env, rate float64, perConn int64) (outcome, error) {
	var o outcome
	run, endRun := e.tr.begin("run", 0)
	defer endRun()
	conns := runtime.GOMAXPROCS(0)
	rig, err := startGateway(e, run, perConn*int64(conns)*gwBatch)
	if err != nil {
		return o, err
	}
	o.build, o.kernels, o.exeStart = rig.build, 3, rig.start
	clients := make([]*gwClient, conns)
	for i := range clients {
		clients[i] = newGwClient(e, rig.gw.Addr(), i, perConn)
	}
	interval := time.Duration(float64(conns) / rate * float64(time.Second))
	rng := rand.New(rand.NewSource(int64(e.seed)))
	offsets := make([]time.Duration, conns)
	for i := range offsets {
		offsets[i] = time.Duration(rng.Int63n(int64(interval)))
	}
	start := time.Now().Add(5 * time.Millisecond)
	lags := make([][]time.Duration, conns)
	ph := &gwPhase{}
	var mid atomic.Int64
	driveClients(clients, func(conn int, c *gwClient) {
		s := schedule{start: start.Add(offsets[conn]), interval: interval, count: int(perConn)}
		lags[conn] = s.run(wallClock{}, func(i int, due time.Time) {
			c.post(reqID(conn, int64(i)), due)
			if conn == 0 && i == int(perConn)/2 {
				mid.Store(int64(rig.src.Out("out").Len()))
			}
		})
	})
	if perConn > 0 {
		ph.backlogMid, ph.backlogEnd = mid.Load(), int64(rig.src.Out("out").Len())
	}
	rep, wall, err := rig.stop()
	if err != nil {
		return o, err
	}
	o.exe = wall
	_, endVerify := e.tr.begin("verify", run)
	defer endVerify()
	gwOutcome(&o, rig, rep, clients)
	for i, c := range clients {
		ph.reqLatMs = append(ph.reqLatMs, c.latMs...)
		ph.sent += c.sent
		ph.accepted += c.accepted
		for _, l := range lags[i] {
			ph.lagMs = append(ph.lagMs, float64(l.Nanoseconds())/1e6)
		}
	}
	ph.itemLatMs = rig.itemLatMs
	o.gw = ph
	return o, nil
}

// closedLoop measures capacity: every tenant sends its next batch as soon
// as the gateway has replied and the sink has seen the previous batch's
// last line. (A loop closed on the HTTP reply alone outruns the relay,
// fills the ring and is shed.)
func closedLoop(e *env, perConn int64) (rps float64, err error) {
	conns := runtime.GOMAXPROCS(0)
	rig, err := startGateway(e, 0, perConn*int64(conns)*gwBatch)
	if err != nil {
		return 0, err
	}
	clients := make([]*gwClient, conns)
	for i := range clients {
		clients[i] = newGwClient(e, rig.gw.Addr(), i, perConn)
	}
	t0 := time.Now()
	driveClients(clients, func(conn int, c *gwClient) {
		for i := int64(0); i < perConn; i++ {
			if c.post(reqID(conn, i), time.Now()) {
				<-rig.batchDone[conn]
			}
		}
	})
	secs := time.Since(t0).Seconds()
	rep, _, err := rig.stop()
	if err != nil {
		return 0, err
	}
	var o outcome
	gwOutcome(&o, rig, rep, clients)
	if o.failed > 0 {
		return 0, fmt.Errorf("gateway closed loop: %d of %d requests failed", o.failed, o.attempted)
	}
	return float64(o.attempted) / secs, nil
}

// layerGateway adds the rest of the open-loop picture: request and item
// latency from due time at the three fixed rates (r2 is the traced
// repetition itself), the highest rate that holds the limit, how late the
// generator ran, the closed-loop capacity the rates are shares of, and the
// handler driven in-process without a socket.
func layerGateway(e *env, n int64, traced outcome, m *metrics) error {
	phases := [3]*gwPhase{1: traced.gw}
	for _, i := range []int{0, 2} {
		o, err := openLoop(e, gwRates[i], int64(float64(n)*gwRates[i]/gwRates[1]))
		if err != nil {
			return err
		}
		if o.failed > 0 {
			return fmt.Errorf("gateway open loop at %.0f req/s: %d of %d requests failed", gwRates[i], o.failed, o.attempted)
		}
		phases[i] = o.gw
	}
	var sent, refused int64
	var lagMs []float64
	sustained := 0.0
	for i, ph := range phases {
		pfx := fmt.Sprintf("gateway.r%d.", i+1)
		_, p50 := tail(ph.reqLatMs, 50)
		_, p99 := tail(ph.reqLatMs, 99)
		admitted := float64(ph.accepted) / float64(max(ph.sent, 1))
		m.set(pfx+"req_lat_p50_ms", p50)
		m.set(pfx+"req_lat_p99_ms", p99)
		m.set(pfx+"admitted_share", admitted)
		sent += ph.sent
		refused += ph.sent - ph.accepted
		lagMs = append(lagMs, ph.lagMs...)
		growing := ph.backlogEnd > ph.backlogMid+int64(2*gwBatch*runtime.GOMAXPROCS(0))
		if p99 <= gwLimitMs && admitted >= 0.999 && !growing {
			sustained = gwRates[i]
		}
	}
	_, v := tail(phases[1].itemLatMs, 50)
	m.set("gateway.item_lat_p50_ms", v)
	_, v = tail(phases[1].itemLatMs, 99)
	m.set("gateway.item_lat_p99_ms", v)
	m.set("gateway.backlog_end_items", float64(phases[2].backlogEnd))
	m.set("gateway.sustained_rps", sustained)
	m.set("gateway.shed_share", float64(refused)/float64(max(sent, 1)))
	_, lag := tail(lagMs, 99)
	m.set("gateway.gen_lag_p99_ms", lag)

	plain := *e
	plain.tr = nil
	rps, err := closedLoop(&plain, max(int64(4000/e.scale), 20))
	if err != nil {
		return err
	}
	m.set("gateway.closed_loop_rps", rps)
	us, err := gwHandlerProbe(&plain, max(int(2000/e.scale), 20))
	if err != nil {
		return err
	}
	m.set("gateway.handler_us", us)
	return nil
}

// gwHandlerProbe drives Server.Handler() in-process through httptest, so
// the cost of admission, decode and inject shows without net/http's socket
// and connection handling. Like runGateway it waits for the sink between
// requests; only the time inside ServeHTTP is counted.
func gwHandlerProbe(e *env, reqs int) (usPerReq float64, err error) {
	rig, err := startGateway(e, 0, int64(reqs*gwBatch))
	if err != nil {
		return 0, err
	}
	c := newGwClient(e, rig.gw.Addr(), 0, 0)
	h := rig.gw.Handler()
	var inHandler time.Duration
	for i := 0; i < reqs; i++ {
		c.stamp(reqID(0, int64(i)), time.Now())
		hr := httptest.NewRequest("POST", "/v1/ingest/"+gwSource, bytes.NewReader(c.payload))
		hr.Header.Set("X-Raft-Tenant", c.tenant)
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, hr)
		inHandler += time.Since(t0)
		c.sent++
		if w.Code == http.StatusAccepted {
			c.accepted++
			<-rig.batchDone[0]
		}
	}
	usPerReq = float64(inHandler.Nanoseconds()) / 1e3 / float64(reqs)
	rep, _, err := rig.stop()
	if err != nil {
		return 0, err
	}
	var o outcome
	gwOutcome(&o, rig, rep, []*gwClient{c})
	if o.failed > 0 {
		return 0, fmt.Errorf("gateway handler probe: %d of %d requests accepted, %d lines at sink", c.accepted, reqs, rig.lines)
	}
	return usPerReq, nil
}
