// Package gateway implements a multi-tenant ingestion front door for a
// running streaming graph: an HTTP endpoint that turns POSTed element
// batches into bulk pushes on a named source port, multiplexing many
// tenants onto shared pipelines.
//
// Admission is two-staged. A per-tenant token bucket enforces the
// provisioned elements/second quota. Batches within quota then pass
// model-driven admission control: the gateway consults the target link's
// live occupancy and the online λ̂/µ̂ estimates (internal/qmodel) and sheds
// load early — HTTP 429 with a Retry-After computed from the predicted
// M/M/c waiting time — instead of letting the admitted queue saturate and
// the whole shared pipeline's latency collapse. A batch that is accepted
// is in the stream's FIFO when the response is written, so admitted means
// exactly-once delivered to the graph.
//
// The package is engine-agnostic: payloads are opaque, and everything the
// admission model needs (queue depth, rates, replica width) arrives as
// closures wired by the raft layer at Exe time. Sources registered but
// not yet wired answer 503, so a gateway can be constructed, bound and
// advertised before the graph runs.
package gateway

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"raftlib/internal/qmodel"
	"raftlib/internal/trace"
)

// Quota is one tenant's provisioned ingestion budget.
type Quota struct {
	// Rate is the sustained budget in elements per second (<=0: unlimited).
	Rate float64
	// Burst is the bucket depth in elements (<=0 selects max(Rate, 1)).
	Burst float64
}

// Config tunes the gateway. The zero value serves HTTP on a loopback
// ephemeral port with no quotas and the default shed thresholds.
type Config struct {
	// Addr is the HTTP listen address (default "127.0.0.1:0"). Listener,
	// when non-nil, takes precedence: the caller owns it and therefore
	// knows its address.
	Addr     string
	Listener net.Listener

	// OccShed sheds a batch when the target queue is at or above this
	// occupancy fraction (default 0.75). The margin below full is what
	// keeps the shared pipeline's in-queue wait bounded for everyone.
	OccShed float64
	// RhoShed sheds when the link's estimated utilization ρ̂ = λ̂/µ̂ reaches
	// this level (default 0.9), catching saturation before the queue does.
	RhoShed float64
	// MaxWait sheds when the predicted M/M/c waiting time for the link
	// exceeds it (default 100ms). Unprimed estimates skip this rule rather
	// than shed on garbage.
	MaxWait time.Duration
	// RetryCeil caps the Retry-After hint, and stands in for it when the
	// predicted wait is unbounded (default 2s).
	RetryCeil time.Duration
	// MaxBody bounds one HTTP request body in bytes (default 8 MiB).
	MaxBody int64

	// DefaultQuota applies to tenants absent from Tenants (zero value:
	// unlimited).
	DefaultQuota Quota
	// Tenants maps tenant name to its provisioned quota.
	Tenants map[string]Quota
}

func (c *Config) fill() {
	if c.OccShed <= 0 {
		c.OccShed = 0.75
	}
	if c.RhoShed <= 0 {
		c.RhoShed = 0.9
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 100 * time.Millisecond
	}
	if c.RetryCeil <= 0 {
		c.RetryCeil = 2 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 8 << 20
	}
}

// Binding registers one graph source with the gateway: how to decode a
// payload into an element batch, and how to hand that batch to the source
// kernel. The raft layer registers these before Exe and completes them
// with a Wiring once the engine links exist.
type Binding struct {
	// Name is the source's kernel name — the {source} segment of the
	// ingest URL.
	Name string
	// Decode parses one payload into an engine-typed batch and reports the
	// element count the quota charges for.
	Decode func(payload []byte) (batch any, n int, err error)
	// Push delivers a decoded batch, admitted for the named tenant, to the
	// source port, blocking until the batch is in the stream's FIFO (or the
	// intake is closed). The tenant lets the source attribute latency
	// provenance (sampled markers) to the sender.
	Push func(tenant string, batch any) error
	// CloseIntake ends the source's stream: buffered batches still drain,
	// then EOF propagates downstream.
	CloseIntake func()
	// Recycle, when set, takes back a decoded batch that was NOT delivered
	// (shed by quota or model, or refused by a closing source), so pooled
	// decode buffers survive shedding. Optional.
	Recycle func(batch any)
	// CopiesSaved, when set, reports how many admitted batches avoided a
	// per-request intermediate copy (pooled decode buffer committed
	// straight into ring storage). Surfaced in /v1/stats. Optional.
	CopiesSaved func() uint64
}

// Wiring is the engine-side view of a bound source, attached at Exe time.
// All fields are optional; missing ones disable the corresponding
// admission rule.
type Wiring struct {
	// Queue reports the source link's live depth and capacity.
	Queue func() (qlen, qcap int)
	// Rates reports the link's online estimates (ok=false until primed).
	Rates func() (lambda, mu, rho float64, ok bool)
	// Servers reports the active consumer replica count (the M/M/c c).
	Servers func() int
	// Dropped reports the link's cumulative best-effort drop count.
	Dropped func() uint64
	// BestEffort marks a link running the drop overflow policy: the
	// gateway admits freely (quota aside) and the ring sheds — tenants on
	// such links trade delivery for latency, so model shedding would be
	// redundant backpressure.
	BestEffort bool
}

// ErrStopped is returned by Start after Stop.
var ErrStopped = errors.New("gateway: server stopped")

// tenantState is one tenant's bucket and counters.
type tenantState struct {
	name   string
	bucket bucket

	admittedBatches atomic.Uint64
	admittedElems   atomic.Uint64
	shedQuota       atomic.Uint64
	shedModel       atomic.Uint64
}

type binding struct {
	Binding
	// wiring is nil until Wire publishes it; ingest reads it without the
	// server lock.
	wiring atomic.Pointer[Wiring]

	admittedElems atomic.Uint64
}

// recycle hands an undelivered batch back to the binding's pool hook.
func (b *binding) recycle(batch any) {
	if b.Recycle != nil {
		b.Recycle(batch)
	}
}

// Server is the ingestion gateway. Construct with New, register sources
// (directly or through raft.BindSource), and hand it to raft.WithGateway;
// Exe wires, starts and stops it around the run.
type Server struct {
	cfg    Config
	httpLn net.Listener

	mu       sync.Mutex
	httpSrv  *http.Server // set by Start
	bindings map[string]*binding
	tenants  map[string]*tenantState
	stopped  bool

	rec        *trace.Recorder
	traceActor int32
	// resolver, when set, gets one shot at materializing a binding for an
	// unknown or unwired source before ingest answers 404/503 — the hook
	// behind per-tenant subgraph templates. It returns the name of the
	// binding (possibly per-tenant, e.g. "name@tenant") that now serves the
	// source, or ok=false to decline.
	resolver func(source, tenant string) (actual string, ok bool)
	// latency, when set, reports a tenant's observed end-to-end p99
	// latency from retired provenance markers (wired by the raft layer).
	latency func(tenant string) (time.Duration, bool)

	wg sync.WaitGroup
}

// New builds a Server and binds its listener eagerly, so Addr is valid
// (and can be advertised) before the graph runs.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{
		cfg:        cfg,
		bindings:   map[string]*binding{},
		tenants:    map[string]*tenantState{},
		traceActor: -1,
	}
	s.httpLn = cfg.Listener
	if s.httpLn == nil {
		addr := cfg.Addr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("gateway: listen %s: %w", addr, err)
		}
		s.httpLn = ln
	}
	return s, nil
}

// Addr returns the HTTP listen address.
func (s *Server) Addr() string { return s.httpLn.Addr().String() }

// Register adds a source binding. Duplicate names are an error.
func (s *Server) Register(b Binding) error {
	if b.Name == "" || b.Decode == nil || b.Push == nil {
		return errors.New("gateway: binding needs Name, Decode and Push")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.bindings[b.Name]; dup {
		return fmt.Errorf("gateway: source %q already registered", b.Name)
	}
	s.bindings[b.Name] = &binding{Binding: b}
	return nil
}

// Sources returns the registered source names (sorted).
func (s *Server) Sources() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.bindings))
	for n := range s.bindings {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Wire attaches the engine-side closures to a registered source. Called
// by raft at Exe time; tests wire fakes directly.
func (s *Server) Wire(name string, w Wiring) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bindings[name]
	if !ok {
		return fmt.Errorf("gateway: wiring unknown source %q", name)
	}
	b.wiring.Store(&w)
	return nil
}

// SetResolver installs the unknown-source hook: ingest consults it before
// answering 404 (unknown source) or 503 (registered but unwired), giving
// the runtime a chance to instantiate a subgraph template and register a
// (possibly per-tenant) binding. The resolver returns the binding name
// that now serves the request; lookup is retried against it.
func (s *Server) SetResolver(f func(source, tenant string) (string, bool)) {
	s.mu.Lock()
	s.resolver = f
	s.mu.Unlock()
}

// Unregister removes a source binding (scale-to-zero reaping of template
// instances). Unknown names are a no-op.
func (s *Server) Unregister(name string) {
	s.mu.Lock()
	delete(s.bindings, name)
	s.mu.Unlock()
}

// SetLatency installs the per-tenant end-to-end latency hook surfaced in
// /v1/stats (p99 over the tenant's flows, from retired latency markers).
func (s *Server) SetLatency(f func(tenant string) (time.Duration, bool)) {
	s.mu.Lock()
	s.latency = f
	s.mu.Unlock()
}

// SetTrace routes admit/shed decisions onto the run's telemetry bus.
func (s *Server) SetTrace(rec *trace.Recorder, actor int32) {
	s.mu.Lock()
	s.rec = rec
	s.traceActor = actor
	s.mu.Unlock()
}

// Start serves HTTP on the listener bound at New.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return ErrStopped
	}
	if s.httpSrv != nil {
		return nil
	}
	srv := &http.Server{Handler: s.Handler()}
	s.httpSrv = srv
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		srv.Serve(s.httpLn)
	}()
	return nil
}

// Stop closes the listener and in-flight connections and waits for the
// serving goroutines. Idempotent.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	srv := s.httpSrv
	s.mu.Unlock()

	if srv == nil {
		s.httpLn.Close()
		return
	}
	srv.Close()
	s.wg.Wait()
}

// tenant returns (creating on first sight) the named tenant's state.
func (s *Server) tenant(name string) *tenantState {
	if name == "" {
		name = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		q, provisioned := s.cfg.Tenants[name]
		if !provisioned {
			q = s.cfg.DefaultQuota
		}
		t = &tenantState{name: name}
		t.bucket.init(q.Rate, q.Burst)
		s.tenants[name] = t
	}
	return t
}

func (s *Server) binding(name string) *binding {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bindings[name]
}

// code classifies one ingest outcome; the HTTP front end maps it to a
// status.
type code uint8

const (
	accepted code = iota
	shedModel
	shedQuota
	notFound
	unwired
	badPayload
	closed
)

type ingestResult struct {
	code  code
	n     int // elements admitted (accepted) or requested (shed)
	retry time.Duration
	msg   string
}

// ingest runs the full admission pipeline for one payload: decode, quota,
// model check, push. On accepted the batch is in the source's FIFO.
func (s *Server) ingest(tenantName, sourceName string, payload []byte) ingestResult {
	b := s.binding(sourceName)
	if b == nil || b.wiring.Load() == nil {
		// Template hook: let the runtime materialize an instance (and its
		// binding) for this source/tenant before giving up.
		s.mu.Lock()
		resolve := s.resolver
		s.mu.Unlock()
		if resolve != nil {
			if actual, ok := resolve(sourceName, tenantName); ok {
				if nb := s.binding(actual); nb != nil {
					b = nb
				}
			}
		}
	}
	if b == nil {
		return ingestResult{code: notFound, msg: fmt.Sprintf("unknown source %q", sourceName)}
	}
	w := b.wiring.Load()
	if w == nil {
		return ingestResult{code: unwired, msg: "source not running"}
	}
	batch, n, err := b.Decode(payload)
	if err != nil {
		return ingestResult{code: badPayload, msg: err.Error()}
	}
	t := s.tenant(tenantName)
	shed := func(c code, counter *atomic.Uint64, wait time.Duration, msg string) ingestResult {
		counter.Add(1)
		b.recycle(batch)
		retry := s.clampRetry(wait)
		s.emit(trace.Shed, t.name, sourceName, retry.Milliseconds())
		return ingestResult{code: c, n: n, retry: retry, msg: msg}
	}
	if ok, wait := t.bucket.take(float64(n), time.Now()); !ok {
		return shed(shedQuota, &t.shedQuota, wait, "tenant quota exceeded")
	}
	if over, wait, why := s.modelShed(w); over {
		// The tokens were provisioned capacity the tenant did not get to
		// use; give them back so a model shed never double-charges.
		t.bucket.refund(float64(n))
		return shed(shedModel, &t.shedModel, wait, "pipeline saturated: "+why)
	}
	if err := b.Push(t.name, batch); err != nil {
		t.bucket.refund(float64(n))
		b.recycle(batch)
		return ingestResult{code: closed, msg: err.Error()}
	}
	t.admittedBatches.Add(1)
	t.admittedElems.Add(uint64(n))
	b.admittedElems.Add(uint64(n))
	s.emit(trace.Admit, t.name, sourceName, int64(n))
	return ingestResult{code: accepted, n: n}
}

// modelShed applies the model-driven admission rules to a binding's wiring:
// shed on near-full occupancy, on estimated utilization at or beyond
// RhoShed, or on a predicted M/M/c wait beyond MaxWait. The returned wait
// is the model's drain/wait estimate feeding Retry-After.
func (s *Server) modelShed(w *Wiring) (shed bool, wait time.Duration, why string) {
	if w.BestEffort {
		// The ring sheds for us (counted in Dropped); gateway-side
		// backpressure would just reintroduce the latency the link opted
		// out of.
		return false, 0, ""
	}
	var lambda, mu, rho float64
	var primed bool
	if w.Rates != nil {
		lambda, mu, rho, primed = w.Rates()
	}
	if w.Queue != nil {
		qlen, qcap := w.Queue()
		if qcap > 0 && float64(qlen) >= s.cfg.OccShed*float64(qcap) {
			// Retry once the backlog above the shed line has drained.
			drain := s.cfg.RetryCeil
			if primed && mu > 0 {
				drain = time.Duration(float64(qlen) / mu * float64(time.Second))
			}
			return true, drain, fmt.Sprintf("queue %d/%d past occupancy threshold", qlen, qcap)
		}
	}
	if primed {
		c := 1
		if w.Servers != nil {
			if n := w.Servers(); n > 0 {
				c = n
			}
		}
		// The link's µ̂ is the aggregate drain rate across the c active
		// consumers; PredictWait wants the per-server rate.
		pw := qmodel.PredictWait(lambda, mu/float64(c), c)
		if rho >= s.cfg.RhoShed {
			return true, waitDuration(pw), fmt.Sprintf("utilization %.2f past threshold", rho)
		}
		if pw > s.cfg.MaxWait.Seconds() {
			return true, waitDuration(pw), fmt.Sprintf("predicted wait %.0fms past limit", pw*1e3)
		}
	}
	return false, 0, ""
}

// waitDuration converts a qmodel wait (seconds, possibly +Inf) to a
// Duration, saturating instead of overflowing.
func waitDuration(sec float64) time.Duration {
	if math.IsInf(sec, 1) || sec > 1e6 {
		return time.Duration(math.MaxInt64)
	}
	if sec < 0 {
		return 0
	}
	return time.Duration(sec * float64(time.Second))
}

// clampRetry bounds a model wait into a useful Retry-After hint:
// at least one second (the header's resolution), at most RetryCeil.
func (s *Server) clampRetry(wait time.Duration) time.Duration {
	if wait > s.cfg.RetryCeil || wait < 0 {
		wait = s.cfg.RetryCeil
	}
	if wait < time.Second {
		wait = time.Second
	}
	return wait
}

func (s *Server) emit(kind trace.Kind, tenant, source string, arg int64) {
	s.mu.Lock()
	rec, actor := s.rec, s.traceActor
	s.mu.Unlock()
	if rec == nil {
		return
	}
	rec.Emit(trace.Event{
		Actor: actor, Kind: kind, At: time.Now().UnixNano(),
		Arg: arg, Label: tenant + "/" + source,
	})
}

// TenantStats is one tenant's admission counters.
type TenantStats struct {
	Name            string
	AdmittedBatches uint64
	AdmittedElems   uint64
	ShedQuota       uint64
	ShedModel       uint64
	// E2EP99 is the tenant's observed end-to-end p99 latency from retired
	// provenance markers (0 until the first marker of the tenant retires,
	// or when markers are disabled). /v1/stats carries it in nanoseconds.
	E2EP99 time.Duration `json:"E2EP99Ns"`
}

// SourceStats is one source's ingestion counters.
type SourceStats struct {
	Name          string
	AdmittedElems uint64
	// Dropped is the source link's cumulative best-effort drop count (zero
	// on backpressure links).
	Dropped uint64
	// CopiesSaved counts admitted batches that avoided a per-request
	// intermediate copy (pooled decode buffer committed straight into ring
	// storage through a write view).
	CopiesSaved uint64
}

// Stats is a point-in-time snapshot of the gateway's counters.
type Stats struct {
	Tenants []TenantStats
	Sources []SourceStats
}

// Stats snapshots per-tenant and per-source counters (sorted by name).
func (s *Server) Stats() Stats {
	s.mu.Lock()
	tenants := make([]*tenantState, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	bindings := make([]*binding, 0, len(s.bindings))
	for _, b := range s.bindings {
		bindings = append(bindings, b)
	}
	latency := s.latency
	s.mu.Unlock()

	var out Stats
	for _, t := range tenants {
		ts := TenantStats{
			Name:            t.name,
			AdmittedBatches: t.admittedBatches.Load(),
			AdmittedElems:   t.admittedElems.Load(),
			ShedQuota:       t.shedQuota.Load(),
			ShedModel:       t.shedModel.Load(),
		}
		if latency != nil {
			if p99, ok := latency(t.name); ok {
				ts.E2EP99 = p99
			}
		}
		out.Tenants = append(out.Tenants, ts)
	}
	for _, b := range bindings {
		ss := SourceStats{Name: b.Name, AdmittedElems: b.admittedElems.Load()}
		if w := b.wiring.Load(); w != nil && w.Dropped != nil {
			ss.Dropped = w.Dropped()
		}
		if b.CopiesSaved != nil {
			ss.CopiesSaved = b.CopiesSaved()
		}
		out.Sources = append(out.Sources, ss)
	}
	sort.Slice(out.Tenants, func(i, j int) bool { return out.Tenants[i].Name < out.Tenants[j].Name })
	sort.Slice(out.Sources, func(i, j int) bool { return out.Sources[i].Name < out.Sources[j].Name })
	return out
}
