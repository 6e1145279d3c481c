package raft

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"raftlib/internal/gateway"
)

// WithGateway attaches a multi-tenant ingestion gateway (see
// internal/gateway and NewGateway) to the run: Exe wires every source
// registered on it (BindSource) to that source's engine link — live
// occupancy, the online λ̂/µ̂/ρ̂ estimates, the consumer replica width and
// the best-effort drop counter — starts its listener just before the
// graph runs, and stops them when the graph completes. Admission
// decisions land on the run's trace bus when WithTrace is active, and the
// Report carries a GatewayReport.
func WithGateway(gw *Gateway) Option {
	return func(c *Config) { c.gateway = gw }
}

// Gateway re-exports the ingestion-gateway server type so applications
// reference it without importing the internal package.
type Gateway = gateway.Server

// GatewayConfig re-exports the gateway configuration so applications
// construct gateways without importing the internal package.
type GatewayConfig = gateway.Config

// GatewayQuota re-exports the per-tenant quota type.
type GatewayQuota = gateway.Quota

// NewGateway builds an ingestion gateway, binding its listener eagerly
// so the address can be advertised before Exe starts serving.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	return gateway.New(cfg)
}

// sourceBatch is one admitted batch in flight from the gateway to the
// Source kernel; done reports delivery (nil = in the stream's FIFO).
// pooled marks a batch whose buffer the source owns (leased by
// BindSourceAppend) and recycles after delivery.
type sourceBatch[T any] struct {
	vals   []T
	done   chan error
	pooled bool
	// tenant is the admitting tenant's name, stamped onto sampled latency
	// markers so e2e distributions attribute per tenant.
	tenant string
}

// Source is an externally-fed source kernel: the bridge between the
// ingestion gateway's admitted batches and a graph stream. It has a
// single output port "out"; batches arrive through inject (called by the
// gateway on its HTTP serving goroutines), are pushed in bulk onto
// the stream, and the caller is unblocked only once the batch is in the
// FIFO — so an accepted request means exactly-once delivery to the graph.
// The kernel stops after CloseIntake (draining buffered batches first) or
// when its downstream closes the stream (abort).
type Source[T any] struct {
	KernelBase

	feed       chan sourceBatch[T]
	intakeDone chan struct{}
	stopped    chan struct{}
	closeOnce  sync.Once
	stopOnce   sync.Once

	// pool recycles decode buffers between requests (BindSourceAppend
	// leases from it, deliver returns to it), so a steady ingest stream
	// stops allocating a fresh intermediate slice per batch.
	pool sync.Pool
	// copiesSaved counts batches that skipped the per-request intermediate
	// allocation: decoded into a pooled buffer, committed into ring storage
	// through a write view, buffer recycled. Surfaced as CopiesSaved in the
	// gateway's /v1/stats.
	copiesSaved atomic.Uint64

	// poll is Run's idle timer, one per source and re-armed on each call
	// (armPoll), so an idle call allocates no timer.
	poll *time.Timer
}

// NewSource builds a gateway-fed source kernel. The name doubles as the
// {source} path segment of the gateway's ingest URL.
func NewSource[T any](name string) *Source[T] {
	s := &Source[T]{
		feed:       make(chan sourceBatch[T], 16),
		intakeDone: make(chan struct{}),
		stopped:    make(chan struct{}),
	}
	s.SetName(name)
	AddOutput[T](s, "out")
	return s
}

// CloseIntake ends the source's stream: no new batches are accepted,
// buffered ones drain, then EOF propagates downstream. Idempotent; wired
// to the gateway's close endpoint by BindSource.
func (s *Source[T]) CloseIntake() {
	s.closeOnce.Do(func() { close(s.intakeDone) })
}

// Run delivers admitted batches onto the output stream. A 5ms poll keeps
// the kernel responsive to downstream aborts (the stream force-closed by
// Raise or deadlock teardown) even when no traffic arrives.
func (s *Source[T]) Run() Status {
	out := s.Out("out")
	s.armPoll()
	select {
	case b := <-s.feed:
		b.done <- s.deliver(out, b)
		return Proceed
	case <-s.intakeDone:
		// Drain batches that made it into the feed before close; their
		// injectors are still waiting on done.
		for {
			select {
			case b := <-s.feed:
				b.done <- s.deliver(out, b)
			default:
				return Stop
			}
		}
	case <-s.poll.C:
		if q := out.q; q != nil && q.Closed() {
			return Stop
		}
		return Proceed
	}
}

// armPoll starts the poll timer for one Run. Stop, drain, Reset: a fire
// that the last Run did not consume is discarded first, which is correct
// under the timer semantics of every Go version since 1.22.
func (s *Source[T]) armPoll() {
	const poll = 5 * time.Millisecond
	if s.poll == nil {
		s.poll = time.NewTimer(poll)
		return
	}
	if !s.poll.Stop() {
		select {
		case <-s.poll.C:
		default:
		}
	}
	s.poll.Reset(poll)
}

// deliver commits one admitted batch to the output stream. The batch is
// copied exactly once, straight into ring storage reserved by a write view;
// best-effort links keep the PushN path because its shed policy is the
// link's contract. A pooled buffer is recycled after delivery — together
// with the write view that makes the decode buffer the only intermediate
// the batch ever touches, counted in copiesSaved.
func (s *Source[T]) deliver(out *Port, b sourceBatch[T]) error {
	// Same-goroutine write: deliver and the push hook that reads
	// stampTenant both run on the kernel's goroutine.
	out.stampTenant = b.tenant
	err := s.push(out, b.vals)
	if b.pooled && err == nil {
		s.copiesSaved.Add(1)
		s.pool.Put(&b.vals)
	}
	return err
}

func (s *Source[T]) push(out *Port, vals []T) error {
	if len(vals) == 0 {
		return nil
	}
	if ringOf[T](out).BestEffort() {
		// The link's shed policy lives in PushN.
		return PushN[T](out, vals)
	}
	off := 0
	for off < len(vals) {
		wv, err := AcquireWriteView[T](out, len(vals)-off)
		if wv.Len() == 0 {
			if err == nil {
				err = ErrClosed
			}
			return err
		}
		n := wv.CopyIn(0, vals[off:], nil)
		ReleaseWriteView[T](out, n)
		off += n
	}
	return nil
}

// lease returns a zero-length decode buffer from the pool.
func (s *Source[T]) lease() []T {
	if bp, ok := s.pool.Get().(*[]T); ok {
		return (*bp)[:0]
	}
	return nil
}

// Finalize marks the kernel stopped, failing any inject still in flight.
func (s *Source[T]) Finalize() {
	s.stopOnce.Do(func() { close(s.stopped) })
}

// inject hands one admitted batch to the kernel and blocks until it is in
// the stream's FIFO (nil) or the source can no longer deliver it
// (ErrClosed / stream error — the gateway answers 503, the batch was NOT
// admitted).
func (s *Source[T]) inject(tenant string, vals []T, pooled bool) error {
	b := sourceBatch[T]{vals: vals, done: make(chan error, 1), pooled: pooled, tenant: tenant}
	select {
	case s.feed <- b:
	case <-s.intakeDone:
		return ErrClosed
	case <-s.stopped:
		return ErrClosed
	}
	select {
	case err := <-b.done:
		return err
	case <-s.stopped:
		// The kernel stopped while the batch waited. It may still have
		// been delivered by the drain loop racing this select — done is
		// buffered, so one final check settles which side of the
		// exactly-once line the batch landed on.
		select {
		case err := <-b.done:
			return err
		default:
			return ErrClosed
		}
	}
}

// BindSource registers a Source kernel with a gateway: dec parses one
// request payload into an element batch (its error becomes HTTP 400).
// Exe completes the binding with the engine-side wiring when the graph
// runs; until then the gateway answers 503 for this source.
func BindSource[T any](gw *Gateway, src *Source[T], dec func(payload []byte) ([]T, error)) error {
	if src.Name() == "" {
		return fmt.Errorf("raft: BindSource requires a named source")
	}
	return gw.Register(sourceBinding(src.Name(), src, func(p []byte, _ []T) ([]T, error) { return dec(p) }, false))
}

// BindSourceAppend registers a Source kernel with a gateway using a
// recycle-friendly decoder: dec receives a zero-length buffer leased from
// the source's pool and appends the decoded elements to it (growing it if
// needed), returning the filled slice. The source owns the returned slice —
// after the batch is committed to ring storage it goes back to the pool, so
// a steady ingest stream decodes without allocating a fresh intermediate
// slice per request. dec must not retain the slice (or any memory it
// returns) past the call.
func BindSourceAppend[T any](gw *Gateway, src *Source[T], dec func(payload []byte, buf []T) ([]T, error)) error {
	if src.Name() == "" {
		return fmt.Errorf("raft: BindSourceAppend requires a named source")
	}
	return gw.Register(sourceBinding(src.Name(), src, dec, true))
}

// sourceBinding builds every gateway binding of a Source. A pooled one
// decodes into buffers leased from the source's pool, takes undelivered
// batches back and counts delivered ones in CopiesSaved; an unpooled one
// hands dec a nil buffer.
func sourceBinding[T any](name string, src *Source[T], dec func(payload []byte, buf []T) ([]T, error), pooled bool) gateway.Binding {
	b := gateway.Binding{
		Name: name,
		Decode: func(payload []byte) (any, int, error) {
			var buf []T
			if pooled {
				buf = src.lease()
			}
			vals, err := dec(payload, buf)
			if err != nil {
				return nil, 0, err
			}
			return vals, len(vals), nil
		},
		Push: func(tenant string, batch any) error {
			return src.inject(tenant, batch.([]T), pooled)
		},
		CloseIntake: src.CloseIntake,
		CopiesSaved: src.copiesSaved.Load,
	}
	if pooled {
		b.Recycle = func(batch any) {
			vs := batch.([]T)
			src.pool.Put(&vs)
		}
	}
	return b
}

// wireGateway completes every source binding registered up front with the
// engine state epoch 0 allocated: the source's outbound link, found in the
// registry, is the admission model's target.
func (ex *Execution) wireGateway() error {
	gw := ex.cfg.gateway
	ex.reg.mu.Lock()
	links := ex.reg.links
	ex.reg.mu.Unlock()
	for _, name := range gw.Sources() {
		var out *linkEntry
		for _, le := range links {
			if le.l.Src.kernelBase().Name() == name {
				out = le
				break
			}
		}
		if out == nil {
			return fmt.Errorf("raft: gateway source %q has no outbound link in this map", name)
		}
		if err := gw.Wire(name, ex.gatewayWiring(out)); err != nil {
			return err
		}
	}
	if ex.rec != nil {
		gw.SetTrace(ex.rec, -1)
	}
	if ex.cfg.markers != nil {
		dom := ex.cfg.markers.dom
		gw.SetLatency(func(tenant string) (time.Duration, bool) {
			return dom.TenantQuantile(tenant, 0.99)
		})
	}
	return nil
}

// gatewayWiring is the admission model's view of a source's outbound link:
// live occupancy and capacity, the telemetry drop counter, the online rate
// estimates under WithServiceRateControl (every link has an estimator tap
// from its build on, a template instance's too), and the active replica
// width when the link feeds a replicated group's split.
func (ex *Execution) gatewayWiring(le *linkEntry) gateway.Wiring {
	li := le.li
	w := gateway.Wiring{
		Queue:      func() (int, int) { return li.Queue.Len(), li.Queue.Cap() },
		Dropped:    li.Queue.Telemetry().Drops,
		BestEffort: li.BestEffort,
	}
	if est := ex.est; est != nil {
		if _, tapped := est.Link(li.ID); tapped {
			w.Rates = func() (lambda, mu, rho float64, ok bool) {
				r, ok := est.Link(li.ID)
				if !ok || !r.Primed {
					return 0, 0, 0, false
				}
				return r.Lambda, r.Mu, r.Rho, true
			}
		}
	}
	for _, sc := range ex.scalers {
		if le.l.Dst.kernelBase() == sc.split.kernelBase() {
			w.Servers = sc.Active
			break
		}
	}
	return w
}

// GatewayReport summarizes ingestion-gateway activity for one run.
type GatewayReport struct {
	// Addr is the gateway's HTTP listen address.
	Addr string
	// Tenants holds per-tenant admission counters (sorted by name).
	Tenants []GatewayTenant
	// Sources holds per-source ingestion counters (sorted by name).
	Sources []GatewaySource
}

// GatewayTenant is one tenant's admission counters: admitted batches and
// elements, batches shed by the tenant's token bucket (ShedQuota) and by
// model-driven admission control (ShedModel: occupancy, utilization or
// predicted-wait thresholds), and the tenant's end-to-end p99 latency from
// retired provenance markers (E2EP99, 0 until a marker of the tenant
// retires).
type GatewayTenant = gateway.TenantStats

// GatewaySource is one source's ingestion counters: admitted elements, the
// source link's best-effort drop count (Dropped, zero on backpressure
// links) and the admitted batches that avoided a per-request intermediate
// copy (CopiesSaved: pooled decode buffer and write-view delivery).
type GatewaySource = gateway.SourceStats

func gatewayReport(gw *gateway.Server) *GatewayReport {
	st := gw.Stats()
	return &GatewayReport{Addr: gw.Addr(), Tenants: st.Tenants, Sources: st.Sources}
}
