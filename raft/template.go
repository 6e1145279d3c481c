package raft

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"raftlib/internal/gateway"
)

// SubgraphTemplate is a parameterized subgraph instantiated per key at
// runtime: the gateway's resolver (or an explicit Rewriter.Instantiate)
// materializes one instance per key through the graph-rewrite protocol,
// so per-tenant pipelines appear on first traffic instead of being built
// up front for every possible tenant.
type SubgraphTemplate struct {
	// Name identifies the template; it doubles as the {source} segment of
	// the gateway ingest URL that triggers instantiation. Instance
	// bindings and kernels are namespaced "Name@key/...".
	Name string
	// Build stages one instance for key on the builder: declare the
	// instance's kernels and links, and (optionally) its gateway intake
	// with BindInstanceSource. Build must only add structure.
	Build func(b *InstanceBuilder, key string) error
	// Idle, when positive, is the scale-to-zero timeout: an instance whose
	// streams move no elements for this long is reaped — its intake closes,
	// Checkpointable kernels snapshot into the execution's checkpoint
	// store, and the instance's kernels and links are removed from the
	// running graph. A later instantiation of the same key restores the
	// snapshots, resuming where the reaped instance left off.
	Idle time.Duration
}

// InstanceBuilder stages one template instance inside a rewrite
// transaction. It is only valid during the template's Build call.
type InstanceBuilder struct {
	tx      *Tx
	binding string
	key     string

	links []*Link

	// Gateway intake staged by BindInstanceSource: the source and its
	// binding under the instance's binding name.
	gwSrc     Kernel
	gwBinding func(name string) gateway.Binding
}

// Key returns the instantiation key (the tenant, under gateway-driven
// instantiation).
func (b *InstanceBuilder) Key() string { return b.key }

// Link stages a stream between two instance kernels; options mirror
// Map.Link.
func (b *InstanceBuilder) Link(src, dst Kernel, opts ...LinkOption) (*Link, error) {
	l, err := b.tx.Link(src, dst, opts...)
	if err != nil {
		return nil, err
	}
	b.links = append(b.links, l)
	return l, nil
}

// MustLink is Link that panics on error, for template bodies where a
// linking mistake is a programming bug.
func (b *InstanceBuilder) MustLink(src, dst Kernel, opts ...LinkOption) *Link {
	l, err := b.Link(src, dst, opts...)
	if err != nil {
		panic(err)
	}
	return l
}

// BindInstanceSource declares src as the instance's gateway intake: once
// the instance commits, the execution's gateway serves the template's
// ingest URL for this key through it (binding name "template@key"). dec
// parses one request payload into an element batch, as in BindSource.
func BindInstanceSource[T any](b *InstanceBuilder, src *Source[T], dec func(payload []byte) ([]T, error)) {
	b.gwSrc = src
	b.gwBinding = func(name string) gateway.Binding {
		return sourceBinding(name, src, func(p []byte, _ []T) ([]T, error) { return dec(p) }, false)
	}
}

// templateInstance is one live (or building) instance.
type templateInstance struct {
	def     *SubgraphTemplate
	key     string
	binding string

	// ready is closed once instantiation finished (err says how); reaping
	// and resolve wait on it so traffic arriving mid-instantiation blocks
	// instead of failing.
	ready chan struct{}
	err   error

	kernels []Kernel
	links   []*linkEntry
	// gwClose closes the instance's gateway intake; nil when it has none.
	gwClose func()

	// Idle detection: lastMoved is the last activity sum sampled from the
	// instance's link telemetry; lastSeen the time it last changed.
	lastMoved uint64
	lastSeen  time.Time
	reaping   bool
}

// templateSet is one execution's template registry and instance book.
type templateSet struct {
	ex *Execution

	mu     sync.Mutex
	defs   map[string]*SubgraphTemplate
	insts  map[string]*templateInstance // keyed by binding "name@key"
	reaper bool
}

func newTemplateSet(ex *Execution) *templateSet {
	return &templateSet{
		ex:    ex,
		defs:  map[string]*SubgraphTemplate{},
		insts: map[string]*templateInstance{},
	}
}

// RegisterTemplate adds a template to the running execution. Instances
// are created on first gateway traffic naming the template as source, or
// explicitly with Instantiate.
func (r *Rewriter) RegisterTemplate(t *SubgraphTemplate) error {
	if t == nil || t.Name == "" || t.Build == nil {
		return errors.New("raft: SubgraphTemplate needs Name and Build")
	}
	ts := r.ex.tmpl
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, dup := ts.defs[t.Name]; dup {
		return fmt.Errorf("raft: template %q already registered", t.Name)
	}
	ts.defs[t.Name] = t
	if t.Idle > 0 && !ts.reaper {
		ts.reaper = true
		go ts.reapLoop()
	}
	return nil
}

// Instantiate materializes (or finds) the template's instance for key,
// splicing it into the running graph. Idempotent per (name, key).
func (r *Rewriter) Instantiate(name, key string) error {
	ts := r.ex.tmpl
	ts.mu.Lock()
	def := ts.defs[name]
	ts.mu.Unlock()
	if def == nil {
		return fmt.Errorf("raft: unknown template %q", name)
	}
	_, err := ts.instantiate(def, key)
	return err
}

// Reap removes the template's instance for key now, regardless of idle
// state: intake closes, Checkpointable kernels snapshot, structure leaves
// the graph.
func (r *Rewriter) Reap(name, key string) error {
	ts := r.ex.tmpl
	ts.mu.Lock()
	inst := ts.insts[instanceBinding(name, key)]
	if inst != nil && !inst.reaping {
		inst.reaping = true
	} else if inst != nil {
		inst = nil // another reap owns it
	}
	ts.mu.Unlock()
	if inst == nil {
		return fmt.Errorf("raft: no live instance %q", instanceBinding(name, key))
	}
	<-inst.ready
	if inst.err != nil {
		return inst.err
	}
	return ts.reap(inst)
}

func instanceBinding(name, key string) string {
	if key == "" {
		key = "default"
	}
	return name + "@" + key
}

// resolve is the gateway's unknown-source hook: traffic for a registered
// template materializes the (source=template, key=tenant) instance and is
// then served by its per-tenant binding.
func (ts *templateSet) resolve(source, tenant string) (string, bool) {
	ts.mu.Lock()
	def := ts.defs[source]
	ts.mu.Unlock()
	if def == nil {
		return "", false
	}
	inst, err := ts.instantiate(def, tenant)
	if err != nil {
		return "", false
	}
	return inst.binding, inst.gwClose != nil
}

// instantiate finds or builds the instance for (def, key). The first
// caller builds; concurrent callers (gateway requests racing the build)
// block on ready and share the outcome.
func (ts *templateSet) instantiate(def *SubgraphTemplate, key string) (*templateInstance, error) {
	binding := instanceBinding(def.Name, key)
	ts.mu.Lock()
	if inst, ok := ts.insts[binding]; ok {
		ts.mu.Unlock()
		<-inst.ready
		return inst, inst.err
	}
	inst := &templateInstance{
		def: def, key: key, binding: binding,
		ready: make(chan struct{}),
	}
	ts.insts[binding] = inst
	ts.mu.Unlock()

	inst.err = ts.build(inst)
	inst.lastSeen = time.Now()
	close(inst.ready)
	if inst.err != nil {
		ts.mu.Lock()
		delete(ts.insts, binding)
		ts.mu.Unlock()
		return inst, inst.err
	}
	return inst, nil
}

// build runs the template body in a rewrite transaction and commits it,
// then registers and wires the instance's gateway binding.
func (ts *templateSet) build(inst *templateInstance) error {
	ex := ts.ex
	tx := ex.rw.Begin()
	b := &InstanceBuilder{tx: tx, binding: inst.binding, key: inst.key}
	if err := inst.def.Build(b, inst.key); err != nil {
		return fmt.Errorf("raft: template %q build: %w", inst.def.Name, err)
	}
	if len(tx.rmKernels) != 0 || len(tx.rmLinks) != 0 {
		return fmt.Errorf("raft: template %q build must only add structure", inst.def.Name)
	}
	if len(tx.addKernels) == 0 {
		return fmt.Errorf("raft: template %q build staged no kernels", inst.def.Name)
	}

	// Namespace the instance's kernels under the binding, so two tenants'
	// instances coexist and checkpoint keys are stable across reap cycles.
	used := map[string]int{}
	for _, k := range tx.addKernels {
		kb := k.kernelBase()
		name := inst.binding + "/" + kernelName(k)
		if n := used[name]; n > 0 {
			name = fmt.Sprintf("%s#%d", name, n)
		}
		used[inst.binding+"/"+kernelName(k)]++
		kb.SetName(name)
	}

	// Re-instantiation after a reap resumes from the reaped instance's
	// snapshots: every Checkpointable kernel restores from the execution's
	// store before its first step (see wireActorResilience).
	inst.kernels = append(inst.kernels, tx.addKernels...)
	if err := tx.Commit(); err != nil {
		return err
	}
	for _, l := range b.links {
		if le := ex.reg.liveLink(l); le != nil {
			inst.links = append(inst.links, le)
		}
	}

	// Gateway intake: registered only after the instance is live, so an
	// admitted batch always has a running pipeline under it.
	if b.gwBinding != nil && ex.cfg.gateway != nil {
		gw := ex.cfg.gateway
		bnd := b.gwBinding(inst.binding)
		if err := gw.Register(bnd); err != nil {
			return err
		}
		var srcLink *linkEntry
		for _, le := range inst.links {
			if le.l.Src == b.gwSrc {
				srcLink = le
				break
			}
		}
		if srcLink == nil {
			return fmt.Errorf("raft: template %q intake source has no instance link", inst.def.Name)
		}
		if err := gw.Wire(inst.binding, ex.gatewayWiring(srcLink)); err != nil {
			return err
		}
		inst.gwClose = bnd.CloseIntake
	}
	return nil
}

// activity sums the instance's link push counters — the idle signal, read
// from telemetry the streams already keep (no hot-path hook).
func (inst *templateInstance) activity() uint64 {
	var sum uint64
	for _, le := range inst.links {
		sum += le.li.Queue.Telemetry().Snapshot().Pushes
	}
	return sum
}

// reapLoop samples instance activity and reaps instances idle past their
// template's timeout. One loop per execution, started with the first
// Idle-bearing template.
func (ts *templateSet) reapLoop() {
	tick := time.NewTicker(ts.reapPeriod())
	defer tick.Stop()
	for {
		select {
		case <-ts.ex.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		var due []*templateInstance
		ts.mu.Lock()
		for _, inst := range ts.insts {
			if inst.reaping || inst.def.Idle <= 0 {
				continue
			}
			select {
			case <-inst.ready:
			default:
				continue // still building
			}
			if inst.err != nil {
				continue
			}
			if moved := inst.activity(); moved != inst.lastMoved {
				inst.lastMoved, inst.lastSeen = moved, now
				continue
			}
			if now.Sub(inst.lastSeen) >= inst.def.Idle {
				inst.reaping = true
				due = append(due, inst)
			}
		}
		ts.mu.Unlock()
		for _, inst := range due {
			ts.reap(inst)
		}
	}
}

// reapPeriod picks the activity sampling period from the registered
// templates' idle timeouts.
func (ts *templateSet) reapPeriod() time.Duration {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	min := time.Second
	for _, def := range ts.defs {
		if def.Idle > 0 && def.Idle/4 < min {
			min = def.Idle / 4
		}
	}
	if min < 10*time.Millisecond {
		min = 10 * time.Millisecond
	}
	return min
}

// reap scales one instance to zero: the gateway binding leaves (in-flight
// requests settle through the closing intake), the instance drains and is
// removed from the graph, and Checkpointable kernels snapshot their final
// state so a future instantiation of the key resumes.
func (ts *templateSet) reap(inst *templateInstance) error {
	ex := ts.ex
	if inst.gwClose != nil {
		ex.cfg.gateway.Unregister(inst.binding)
		inst.gwClose()
	}

	// Removal transaction: the commit waits for the instance's kernels to
	// drain and stop, so the snapshots below capture settled state.
	tx := ex.rw.Begin()
	for _, le := range inst.links {
		if err := tx.RemoveLink(le.l); err != nil {
			return err
		}
	}
	for _, k := range inst.kernels {
		if err := tx.RemoveKernel(k); err != nil {
			return err
		}
	}
	err := tx.Commit()

	for _, k := range inst.kernels {
		ck, ok := k.(Checkpointable)
		if !ok {
			continue
		}
		snap, serr := ck.Snapshot()
		if serr != nil {
			if err == nil {
				err = fmt.Errorf("raft: reap snapshot %q: %w", k.kernelBase().Name(), serr)
			}
			continue
		}
		if werr := ex.cfg.ckptStore.Save(k.kernelBase().Name(), snap); werr != nil && err == nil {
			err = werr
		}
	}

	ts.mu.Lock()
	delete(ts.insts, inst.binding)
	ts.mu.Unlock()
	return err
}
