// Package event reproduces SPIN's dynamic event dispatcher (paper §2), the
// mechanism Plexus builds its protocol graph on.
//
// An event is declared like a procedure ("Ethernet.PacketRecv") and raised
// like a call. Extensions install handlers on events; each handler may carry
// a guard, an arbitrary predicate the dispatcher evaluates before invoking
// the handler. Guards are how Plexus implements packet filters: a guard
// inspects the packet and returns true only for packets its handler is
// responsible for, both demultiplexing the protocol graph and preventing
// snooping.
//
// The paper's EPHEMERAL attribute (§3.3) marks handlers safe to run at
// interrupt level: they may be asynchronously terminated without damaging
// state. Go has no compile-time effect system, so the attribute is carried on
// the handler descriptor; events declared RequireEphemeral reject
// non-ephemeral installs exactly as the paper's protocol managers do, and
// per-binding time allotments are enforced by terminating (in simulation:
// refunding and flagging) handlers that overrun.
//
// Dispatch cost is charged to the raising task: "the overhead of invoking
// each handler is roughly one procedure call".
//
// # Keyed bindings
//
// An event declared with a key extractor (Options.Key) also accepts keyed
// bindings (InstallKeyed), whose guard is "the packet's key equals k" — the
// exact-match demultiplexing a transport's per-connection guards perform.
// The dispatcher extracts the key once per raise and finds the matching
// keyed bindings through an index, so host cost does not grow with their
// number. Simulated cost does: each live keyed binding is still charged one
// GuardEval per raise, exactly as the equivalent guard closure would be, so
// the paper's linear guard-chain cost model is unchanged.
//
// # Crash containment and quarantine
//
// A handler or guard that panics is caught by the dispatcher: the time it
// consumed stays charged, the fault is counted on its binding, and dispatch
// continues to the remaining matched bindings — one rogue extension cannot
// stop delivery to the rest of the protocol graph. Faults (panics, allotment
// terminations, guard budget overruns) accumulate per binding; an optional
// QuarantinePolicy auto-disables a binding once its fault count reaches a
// threshold — the paper's "the manager can reject the handler" extended to
// runtime ejection. Dispatcher-integrity panics (raising an undeclared
// event, exceeding the recursion bound) are NOT contained: they indicate a
// misbuilt graph, not a misbehaving extension, and propagate to the caller.
package event

import (
	"errors"
	"fmt"
	"sync/atomic"

	"plexus/internal/mbuf"
	"plexus/internal/sim"
)

// Name identifies an event, conventionally "Interface.Procedure".
type Name string

// Raiser abstracts how an event raise is performed. The Dispatcher raises
// inline (handlers run in the raising task — the paper's interrupt-level
// dispatch); a protocol stack may interpose thread handoff or a monolithic
// kernel's softirq step between layers instead. RaiseRef is the per-packet
// form: layers that raise the same event for every packet resolve the name
// to a Ref once at construction and stay off the name map in steady state.
type Raiser interface {
	Raise(t *sim.Task, name Name, m *mbuf.Mbuf) int
	RaiseRef(t *sim.Task, r *Ref, m *mbuf.Mbuf) int
}

// Guard is a packet-filter predicate evaluated before a handler is invoked.
// Guards must be side-effect free; they run for every raise of the event.
type Guard func(t *sim.Task, m *mbuf.Mbuf) bool

// HandlerFunc is the procedure executed in response to an event.
type HandlerFunc func(t *sim.Task, m *mbuf.Mbuf)

// Handler is a handler procedure plus the attributes the dispatcher needs:
// a diagnostic name and whether the procedure is EPHEMERAL.
type Handler struct {
	Name      string
	Fn        HandlerFunc
	Ephemeral bool
}

// Ephemeral builds an EPHEMERAL handler descriptor: one whose implementation
// tolerates premature termination without violating invariants (paper
// Figure 3). The caller asserts the property; the dispatcher enforces its
// consequences.
func Ephemeral(name string, fn HandlerFunc) Handler {
	return Handler{Name: name, Fn: fn, Ephemeral: true}
}

// Proc builds an ordinary (non-ephemeral) handler descriptor.
func Proc(name string, fn HandlerFunc) Handler {
	return Handler{Name: name, Fn: fn}
}

// KeyFunc extracts a packet's demultiplexing key. ok=false means the packet
// carries no valid key, and every keyed binding rejects it.
type KeyFunc func(m *mbuf.Mbuf) (key uint64, ok bool)

// Options configure a declared event.
type Options struct {
	// RequireEphemeral makes the event reject non-EPHEMERAL handlers at
	// install time. Events raised from interrupt context declare this.
	RequireEphemeral bool
	// Key, when set, lets the event take keyed bindings (InstallKeyed).
	Key KeyFunc
}

// Costs parameterize what raising an event charges the running task. The
// defaults model SPIN's measured overheads: a guard evaluation and a handler
// invocation each cost roughly a procedure call.
type Costs struct {
	GuardEval sim.Time // charged per guard evaluated
	Invoke    sim.Time // charged per handler invoked
}

// DefaultCosts mirrors the paper's "roughly one procedure call" dispatch.
func DefaultCosts() Costs {
	return Costs{GuardEval: 200 * sim.Nanosecond, Invoke: 1 * sim.Microsecond}
}

// Errors returned by the dispatcher.
var (
	// ErrUnknownEvent reports a raise or install on an undeclared event.
	ErrUnknownEvent = errors.New("event: unknown event")
	// ErrNotEphemeral reports an attempt to install a non-EPHEMERAL handler
	// on an event that requires one (paper §3.3: "the manager can reject
	// the handler").
	ErrNotEphemeral = errors.New("event: handler is not EPHEMERAL")
	// ErrDuplicate reports a duplicate event declaration.
	ErrDuplicate = errors.New("event: already declared")
	// ErrNotKeyed reports a keyed install on an event declared without a
	// key extractor.
	ErrNotKeyed = errors.New("event: event has no key extractor")
	// ErrAllotmentNotEphemeral reports an attempt to install a non-EPHEMERAL
	// handler with a time allotment. Allotments are enforced by premature
	// termination, which only EPHEMERAL handlers tolerate (§3.3); terminating
	// an ordinary handler could leave shared state corrupt.
	ErrAllotmentNotEphemeral = errors.New("event: time allotment requires an EPHEMERAL handler")
)

// BindingStats counts a binding's dispatch activity and its faults. The sum
// Faults() is what the quarantine policy compares against its threshold.
type BindingStats struct {
	Invocations   uint64 // handler bodies run
	GuardRejects  uint64 // raises filtered out by the guard
	Terminations  uint64 // premature terminations for budget overrun
	Panics        uint64 // handler bodies that panicked (contained)
	GuardPanics   uint64 // guard evaluations that panicked (contained; counts as a reject)
	GuardOverruns uint64 // guard evaluations exceeding the policy's GuardBudget
}

// Faults is the total misbehavior charged against the binding: allotment
// terminations, contained panics (handler or guard), and guard overruns.
func (s BindingStats) Faults() uint64 {
	return s.Terminations + s.Panics + s.GuardPanics + s.GuardOverruns
}

// Binding is one installed (guard, handler) pair; the handle for uninstall.
//
// Lifecycle: a *Binding stays valid after the binding stops delivering —
// whether by Uninstall or by quarantine — so owners can read Stats(),
// Quarantined(), and Removed() post-mortem. Only dispatch stops; the handle
// is never recycled.
type Binding struct {
	event *eventState
	guard Guard
	// The handler descriptor is stored unpacked so its flag shares a word
	// with removed/quarantined, keeping Binding in the 112-byte size class
	// with the keyed pointer added.
	name        string
	fn          HandlerFunc
	ephemeral   bool
	removed     bool
	quarantined bool
	allotment   sim.Time // 0 = unlimited
	// keyed is nil except for keyed bindings.
	keyed *keyedBinding
	stats BindingStats
}

// keyedBinding is the state only keyed bindings carry.
type keyedBinding struct {
	key uint64
	// next chains bindings sharing the key, in install order.
	next *Binding
	// before counts the live unkeyed bindings installed ahead of this one:
	// its place in the event's install order.
	before int
	// since and until bracket the event's raise count over the binding's
	// live span (until is set when it leaves the index); accepts counts
	// the raises whose key matched. GuardRejects is derived from them.
	since, until, accepts uint64
}

// Stats returns a snapshot of the binding's counters.
func (b *Binding) Stats() BindingStats {
	st := b.stats
	if kb := b.keyed; kb != nil {
		end := b.event.raises
		if b.removed || b.quarantined {
			end = kb.until
		}
		st.GuardRejects = end - kb.since - kb.accepts
	}
	return st
}

// Handler returns the installed handler descriptor.
func (b *Binding) Handler() Handler { return Handler{Name: b.name, Fn: b.fn, Ephemeral: b.ephemeral} }

// Allotment returns the per-invocation time budget (0 = unlimited).
func (b *Binding) Allotment() sim.Time { return b.allotment }

// Quarantined reports whether the dispatcher auto-disabled the binding after
// it reached the quarantine policy's fault threshold.
func (b *Binding) Quarantined() bool { return b.quarantined }

// Removed reports whether the binding was uninstalled.
func (b *Binding) Removed() bool { return b.removed }

// Event returns the name of the event the binding was installed on.
func (b *Binding) Event() Name { return b.event.name }

// QuarantinePolicy configures runtime ejection of faulty bindings. The zero
// value disables quarantine (faults are still counted in BindingStats).
type QuarantinePolicy struct {
	// Threshold is the fault count (BindingStats.Faults) at which the
	// dispatcher auto-disables a binding. 0 disables quarantine.
	Threshold uint64
	// GuardBudget bounds the CPU a single guard evaluation may consume
	// beyond the dispatcher's own GuardEval charge. A guard exceeding it is
	// refunded down to the budget and charged a GuardOverruns fault —
	// allotment enforcement extended to guards, which the paper requires to
	// be cheap predicates. 0 = unlimited.
	GuardBudget sim.Time
}

// Enabled reports whether the policy ejects bindings.
func (p QuarantinePolicy) Enabled() bool { return p.Threshold > 0 }

type eventState struct {
	name             Name
	requireEphemeral bool
	// bindings holds the unkeyed bindings in install order.
	bindings []*Binding
	raises   uint64
	// keyed is nil unless the event was declared with a key extractor.
	keyed *keyIndex
}

// keyIndex is a keyed event's binding index: the bindings for each key,
// chained in install order.
type keyIndex struct {
	extract KeyFunc
	byKey   map[uint64]*Binding
	live    int
	// owner is the profiler owner every keyed guard charge is filed under.
	owner string
}

// add appends b to its key's chain.
func (kx *keyIndex) add(b *Binding) {
	kx.live++
	head := kx.byKey[b.keyed.key]
	if head == nil {
		kx.byKey[b.keyed.key] = b
		return
	}
	for head.keyed.next != nil {
		head = head.keyed.next
	}
	head.keyed.next = b
}

// remove unlinks b from its key's chain.
func (kx *keyIndex) remove(b *Binding) bool {
	kb := b.keyed
	for p, x := (*Binding)(nil), kx.byKey[kb.key]; x != nil; p, x = x, x.keyed.next {
		if x != b {
			continue
		}
		switch {
		case p != nil:
			p.keyed.next = kb.next
		case kb.next != nil:
			kx.byKey[kb.key] = kb.next
		default:
			delete(kx.byKey, kb.key)
		}
		kb.next = nil
		kx.live--
		return true
	}
	return false
}

// each calls fn for every indexed binding.
func (kx *keyIndex) each(fn func(*Binding)) {
	for _, b := range kx.byKey {
		for ; b != nil; b = b.keyed.next {
			fn(b)
		}
	}
}

// handlerCount is the number of live bindings on the event.
func (ev *eventState) handlerCount() int {
	n := len(ev.bindings)
	if ev.keyed != nil {
		n += ev.keyed.live
	}
	return n
}

// Dispatcher routes raised events to installed handlers.
type Dispatcher struct {
	costs  Costs
	events map[Name]*eventState
	// raiseDepth guards against accidental unbounded event recursion in a
	// misbuilt protocol graph.
	raiseDepth int32
	// scratch holds one reusable binding buffer per active raise depth, so
	// the per-raise snapshot does not allocate in steady state. Indexed by
	// depth-1; nested raises each get their own buffer.
	scratch [][]*Binding
	// quar is the quarantine policy; zero value = disabled.
	quar QuarantinePolicy
	// ejected retains quarantined bindings (already detached from their
	// events) so Health can still account for them.
	ejected []*Binding
	// pool, when attached, contributes the host's mbuf gauge to Health so
	// buffer leaks surface in the same snapshot as fault counters.
	pool *mbuf.Pool
	// tcpGauge, when attached, contributes the transport's conformance
	// counters to Health (the event layer cannot import internal/tcp).
	tcpGauge func() TCPGauge
}

// maxRaiseDepth bounds protocol-graph recursion; real stacks are ~6 deep.
const maxRaiseDepth = 64

// NewDispatcher creates a dispatcher with the given cost model.
func NewDispatcher(costs Costs) *Dispatcher {
	return &Dispatcher{costs: costs, events: make(map[Name]*eventState)}
}

// SetQuarantine installs (or, with the zero value, disables) the quarantine
// policy. It applies to faults recorded after the call; bindings already
// quarantined stay quarantined.
func (d *Dispatcher) SetQuarantine(p QuarantinePolicy) { d.quar = p }

// Quarantine returns the active quarantine policy.
func (d *Dispatcher) Quarantine() QuarantinePolicy { return d.quar }

// Health is a dispatcher-level snapshot of extension behavior: how many
// bindings are live, how many the quarantine policy has ejected, and the
// fault totals accumulated across every binding (including ejected ones).
type Health struct {
	Events        int    // declared events
	Bindings      int    // live installed bindings
	Quarantined   int    // bindings auto-disabled by the quarantine policy
	Invocations   uint64 // handler bodies run
	Panics        uint64 // handler panics contained
	GuardPanics   uint64 // guard panics contained
	Terminations  uint64 // allotment overruns terminated
	GuardOverruns uint64 // guard budget overruns
	Faults        uint64 // sum of the four fault classes

	// Mbuf is the host pool's live-buffer gauge (zero value when no pool
	// is attached): in-flight mbufs/clusters and their high-water marks.
	Mbuf mbuf.Gauge

	// TCP is the transport's conformance gauge (zero value when no TCP
	// manager is attached): rejected RSTs and TIME-WAIT quiet-period
	// activity.
	TCP TCPGauge
}

// TCPGauge surfaces the transport's RFC 793 conformance counters in Health.
// The dispatcher sits below the protocol stack and cannot import
// internal/tcp, so — like the mbuf pool — the transport attaches a provider.
type TCPGauge struct {
	RSTsRejected       uint64 `json:"tcp_rsts_rejected"`
	TimeWaitRearms     uint64 `json:"tcp_timewait_rearms"`
	TimeWaitQuietDrops uint64 `json:"tcp_timewait_quiet_drops"`
	// FastRecoveries counts NewReno fast-recovery episodes; SackRexmits
	// counts scoreboard-driven selective retransmissions.
	FastRecoveries uint64 `json:"tcp_fast_recoveries"`
	SackRexmits    uint64 `json:"tcp_sack_rexmits"`
}

// Health returns the dispatcher's current health snapshot.
func (d *Dispatcher) Health() Health {
	h := Health{Events: len(d.events), Quarantined: len(d.ejected)}
	acc := func(b *Binding) {
		h.Invocations += b.stats.Invocations
		h.Panics += b.stats.Panics
		h.GuardPanics += b.stats.GuardPanics
		h.Terminations += b.stats.Terminations
		h.GuardOverruns += b.stats.GuardOverruns
		h.Faults += b.stats.Faults()
	}
	for _, ev := range d.events {
		h.Bindings += ev.handlerCount()
		for _, b := range ev.bindings {
			acc(b)
		}
		if ev.keyed != nil {
			ev.keyed.each(acc)
		}
	}
	for _, b := range d.ejected {
		acc(b)
	}
	if d.pool != nil {
		h.Mbuf = d.pool.Gauge()
	}
	if d.tcpGauge != nil {
		h.TCP = d.tcpGauge()
	}
	return h
}

// AttachPool associates the host's mbuf pool with the dispatcher so Health
// includes the buffer gauge. Nil detaches.
func (d *Dispatcher) AttachPool(p *mbuf.Pool) { d.pool = p }

// AttachTCPGauge associates a TCP conformance-counter provider with the
// dispatcher so Health includes the transport gauge. Nil detaches.
func (d *Dispatcher) AttachTCPGauge(fn func() TCPGauge) { d.tcpGauge = fn }

// Declare registers an event name. Redeclaration fails.
func (d *Dispatcher) Declare(name Name, opts Options) error {
	if _, ok := d.events[name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, name)
	}
	ev := &eventState{name: name, requireEphemeral: opts.RequireEphemeral}
	if opts.Key != nil {
		ev.keyed = &keyIndex{extract: opts.Key}
	}
	d.events[name] = ev
	return nil
}

// MustDeclare is Declare that panics on error, for static graph setup.
func (d *Dispatcher) MustDeclare(name Name, opts Options) {
	if err := d.Declare(name, opts); err != nil {
		panic(err)
	}
}

// Declared reports whether name has been declared.
func (d *Dispatcher) Declared(name Name) bool {
	_, ok := d.events[name]
	return ok
}

// Install attaches a handler (with optional guard; nil matches everything)
// to an event. allotment, if nonzero, is the EPHEMERAL time budget per
// invocation. Installation order is dispatch order.
func (d *Dispatcher) Install(name Name, guard Guard, h Handler, allotment sim.Time) (*Binding, error) {
	bv, err := d.newBinding(name, h, allotment)
	if err != nil {
		return nil, err
	}
	b := &bv
	b.guard = guard
	b.event.bindings = append(b.event.bindings, b)
	return b, nil
}

// keyedAlloc holds a keyed binding and its keyed state, so installing one
// costs a single allocation.
type keyedAlloc struct {
	b Binding
	k keyedBinding
}

// InstallKeyed attaches a handler whose guard is "the packet's key equals
// key" to an event declared with Options.Key. It dispatches exactly as
// Install with that guard would — in install order among all the event's
// bindings, charged one GuardEval per raise — but the dispatcher finds it
// through the key index instead of evaluating it.
func (d *Dispatcher) InstallKeyed(name Name, key uint64, h Handler, allotment sim.Time) (*Binding, error) {
	bv, err := d.newBinding(name, h, allotment)
	if err != nil {
		return nil, err
	}
	ev := bv.event
	kx := ev.keyed
	if kx == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotKeyed, name)
	}
	if kx.byKey == nil {
		// Built on first use: most hosts declare TCP but never open a
		// connection, and at 10k hosts the idle indexes add up.
		kx.byKey = make(map[uint64]*Binding)
		kx.owner = "demux:" + string(name)
	}
	ka := &keyedAlloc{b: bv, k: keyedBinding{key: key, before: len(ev.bindings), since: ev.raises}}
	b := &ka.b
	b.keyed = &ka.k
	kx.add(b)
	return b, nil
}

// newBinding validates an install and builds the binding, unattached.
func (d *Dispatcher) newBinding(name Name, h Handler, allotment sim.Time) (Binding, error) {
	ev, ok := d.events[name]
	if !ok {
		return Binding{}, fmt.Errorf("%w: %s", ErrUnknownEvent, name)
	}
	if ev.requireEphemeral && !h.Ephemeral {
		return Binding{}, fmt.Errorf("%w: %s on %s", ErrNotEphemeral, h.Name, name)
	}
	if h.Fn == nil {
		return Binding{}, fmt.Errorf("event: nil handler %q on %s", h.Name, name)
	}
	if allotment < 0 {
		return Binding{}, fmt.Errorf("event: negative allotment %v for %q on %s", allotment, h.Name, name)
	}
	if allotment > 0 && !h.Ephemeral {
		return Binding{}, fmt.Errorf("%w: %s on %s", ErrAllotmentNotEphemeral, h.Name, name)
	}
	return Binding{event: ev, name: h.Name, fn: h.Fn, ephemeral: h.Ephemeral, allotment: allotment}, nil
}

// Uninstall detaches a binding. Semantics:
//
//   - Returns true iff this call removed an actively dispatching binding.
//   - Double-uninstall is a no-op returning false.
//   - Uninstalling a quarantined binding marks it removed but returns false
//     (quarantine had already detached it).
//   - A binding uninstalled during a raise does not fire later in that same
//     raise, even though the raise's dispatch snapshot was taken before the
//     removal.
//   - The *Binding handle stays valid afterwards: Stats() remains readable;
//     only delivery stops.
func (d *Dispatcher) Uninstall(b *Binding) bool {
	if b == nil || b.removed {
		return false
	}
	b.removed = true
	if b.quarantined {
		return false
	}
	return detach(b)
}

// detach splices a binding out of its event's dispatch list or key index.
func detach(b *Binding) bool {
	ev := b.event
	if kb := b.keyed; kb != nil {
		kb.until = ev.raises
		return ev.keyed.remove(b)
	}
	for i, x := range ev.bindings {
		if x == b {
			ev.bindings = append(ev.bindings[:i], ev.bindings[i+1:]...)
			if ev.keyed != nil {
				// Keyed bindings installed after b move up one place.
				ev.keyed.each(func(k *Binding) {
					if k.keyed.before > i {
						k.keyed.before--
					}
				})
			}
			return true
		}
	}
	return false
}

// HandlerCount reports the number of handlers installed on an event.
func (d *Dispatcher) HandlerCount(name Name) int {
	if ev, ok := d.events[name]; ok {
		return ev.handlerCount()
	}
	return 0
}

// Ref is a resolved handle to one declared event. The handle pins the
// event's dispatch state, so raising or counting handlers through it skips
// the name-map lookup that Raise and HandlerCount pay — the difference is
// a few percent of total runtime on the per-packet path, where every layer
// raises the same one or two events for every packet. Declarations are
// permanent, so a Ref never goes stale; handlers installed or removed later
// are seen by the next raise through it, exactly as with Raise by name.
type Ref struct {
	d  *Dispatcher
	ev *eventState
}

// Ref resolves name to a dispatch handle. Like raising an undeclared event,
// resolving an undeclared name panics: only code linked against the event's
// interface can name it, so an unknown name is a programming error.
func (d *Dispatcher) Ref(name Name) *Ref {
	ev, ok := d.events[name]
	if !ok {
		panic(graphPanic{fmt.Sprintf("event: ref to undeclared event %s", name)})
	}
	return &Ref{d: d, ev: ev}
}

// Name returns the referenced event's name.
func (r *Ref) Name() Name { return r.ev.name }

// HandlerCount reports the number of handlers installed on the event.
func (r *Ref) HandlerCount() int { return r.ev.handlerCount() }

// Raise is Dispatcher.Raise through the resolved handle.
func (r *Ref) Raise(t *sim.Task, m *mbuf.Mbuf) int { return r.d.raise(t, r.ev, m) }

// RaiseRef implements Raiser's resolved-handle raise for inline dispatch.
func (d *Dispatcher) RaiseRef(t *sim.Task, r *Ref, m *mbuf.Mbuf) int {
	return d.raise(t, r.ev, m)
}

// Raises reports how many times an event has been raised.
func (d *Dispatcher) Raises(name Name) uint64 {
	if ev, ok := d.events[name]; ok {
		return ev.raises
	}
	return 0
}

// graphPanic marks dispatcher-integrity panics (raise of an undeclared
// event, recursion bound exceeded) so crash containment rethrows them
// instead of charging them to whichever extension's handler happened to be
// on the stack.
type graphPanic struct{ msg string }

func (g graphPanic) Error() string  { return g.msg }
func (g graphPanic) String() string { return g.msg }

// evalGuard runs one guard under crash containment. A panicking guard is
// treated as a reject; the fault is the caller's to count.
func (d *Dispatcher) evalGuard(t *sim.Task, name Name, b *Binding, m *mbuf.Mbuf) (ok, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			if gp, isGraph := r.(graphPanic); isGraph {
				panic(gp)
			}
			panicked = true
			if t.Sim().TraceEnabled() {
				t.Sim().Tracef(sim.TraceEvent, "%s: guard of %s panicked (contained): %v",
					name, b.name, r)
			}
		}
	}()
	return b.guard(t, m), false
}

// invoke runs one handler body under crash containment.
func (d *Dispatcher) invoke(t *sim.Task, name Name, b *Binding, m *mbuf.Mbuf) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			if gp, isGraph := r.(graphPanic); isGraph {
				panic(gp)
			}
			panicked = true
			if t.Sim().TraceEnabled() {
				t.Sim().Tracef(sim.TraceEvent, "%s: handler %s panicked (contained): %v",
					name, b.name, r)
			}
		}
	}()
	b.fn(t, m)
	return false
}

// fault applies the quarantine policy after a fault was recorded on b.
func (d *Dispatcher) fault(t *sim.Task, name Name, b *Binding) {
	if d.quar.Threshold == 0 || b.quarantined || b.removed {
		return
	}
	if b.stats.Faults() < d.quar.Threshold {
		return
	}
	b.quarantined = true
	detach(b)
	d.ejected = append(d.ejected, b)
	if t.Sim().TraceEnabled() {
		t.Sim().Tracef(sim.TraceEvent, "%s: handler %s quarantined after %d faults",
			name, b.name, b.stats.Faults())
	}
}

// Raise announces the event to every installed handler whose guard accepts
// the packet, charging the raising task per the cost model. It returns the
// number of handlers invoked. Raising an undeclared event panics: in SPIN
// only code linked against the event's interface can name it, so an unknown
// name is a programming error, not a runtime condition.
//
// Handlers and guards run under crash containment: a panic is caught and
// counted (BindingStats.Panics / GuardPanics), the time consumed stays
// charged, and dispatch continues. Containment preserves the graph, not the
// packet — a handler that panicked mid-mutation may leave the mbuf chain in
// a state later handlers must tolerate, exactly as they must tolerate any
// other handler's consumption of the packet.
func (d *Dispatcher) Raise(t *sim.Task, name Name, m *mbuf.Mbuf) int {
	ev, ok := d.events[name]
	if !ok {
		panic(graphPanic{fmt.Sprintf("event: raise of undeclared event %s", name)})
	}
	return d.raise(t, ev, m)
}

// raise dispatches to ev's handlers; see Raise for the semantics.
func (d *Dispatcher) raise(t *sim.Task, ev *eventState, m *mbuf.Mbuf) int {
	name := ev.name
	depth := atomic.AddInt32(&d.raiseDepth, 1)
	if depth > maxRaiseDepth {
		atomic.AddInt32(&d.raiseDepth, -1)
		panic(graphPanic{fmt.Sprintf("event: raise depth exceeds %d (cycle in protocol graph?) at %s", maxRaiseDepth, name)})
	}
	defer atomic.AddInt32(&d.raiseDepth, -1)
	ev.raises++
	if m != nil {
		if hdr := m.Hdr(); hdr != nil {
			t.Hop(hdr.Span, "event", string(name), hdr.Len)
		}
	}
	invoked := 0
	// Snapshot: handlers installed/removed during dispatch take effect on
	// the next raise, matching SPIN's install semantics. The snapshot is
	// copied into a per-depth scratch buffer reused across raises.
	for int(depth) > len(d.scratch) {
		d.scratch = append(d.scratch, nil)
	}
	bindings := d.scratch[depth-1][:0]
	if kx := ev.keyed; kx != nil && kx.live > 0 {
		// Every live keyed guard is charged, as its guard closure would be,
		// but only the bindings whose key matches join the snapshot, each
		// spliced in at its install position.
		d.chargeKeyed(t, kx)
		var hit *Binding
		if k, ok := kx.extract(m); ok {
			hit = kx.byKey[k]
		}
		i := 0
		for ; hit != nil; hit = hit.keyed.next {
			bindings = append(bindings, ev.bindings[i:hit.keyed.before]...)
			i = hit.keyed.before
			bindings = append(bindings, hit)
		}
		bindings = append(bindings, ev.bindings[i:]...)
	} else {
		bindings = append(bindings, ev.bindings...)
	}
	d.scratch[depth-1] = bindings
	// Dispatch is two-phase: every guard is evaluated against the intact
	// packet first, then the matching handlers run. A handler may consume
	// the packet (strip headers, free it), which must not corrupt the
	// view later guards see. matched overlays the snapshot's storage: it
	// only ever writes an index the scan has already passed.
	matched := bindings[:0]
	for _, b := range bindings {
		if b.removed || b.quarantined {
			continue
		}
		if b.keyed != nil {
			b.keyed.accepts++
		} else if b.guard != nil {
			t.ChargeProf(sim.ProfDispatch, b.name, d.costs.GuardEval)
			before := t.Charged()
			ok, panicked := d.evalGuard(t, name, b, m)
			if d.quar.GuardBudget > 0 {
				if over := t.Charged() - before - d.quar.GuardBudget; over > 0 {
					// The guard overran its budget: terminate it there, like
					// a handler at its allotment.
					t.Refund(over)
					b.stats.GuardOverruns++
					d.fault(t, name, b)
				}
			}
			if panicked {
				b.stats.GuardPanics++
				d.fault(t, name, b)
				continue
			}
			if !ok {
				b.stats.GuardRejects++
				continue
			}
		}
		matched = append(matched, b)
	}
	for _, b := range matched {
		// Re-check liveness: an earlier handler in this same raise may have
		// uninstalled b, or b's guard fault may have quarantined it after it
		// matched. A removed binding must not fire on the stale snapshot.
		if b.removed || b.quarantined {
			continue
		}
		t.ChargeProf(sim.ProfDispatch, b.name, d.costs.Invoke)
		before := t.Charged()
		panicked := d.invoke(t, name, b, m)
		consumed := t.Charged() - before
		if b.allotment > 0 && consumed > b.allotment {
			// Premature termination: the handler stopped at its
			// allotment; CPU time beyond it was never consumed.
			t.Refund(consumed - b.allotment)
			t.Sim().Tracef(sim.TraceEvent, "%s: handler %s terminated after %v (allotment %v)",
				name, b.name, consumed, b.allotment)
			b.stats.Terminations++
			d.fault(t, name, b)
		}
		if panicked {
			b.stats.Panics++
			d.fault(t, name, b)
		}
		if mm := t.Sim().Metrics(); mm != nil {
			// Attribute the handler body's post-clamp consumption; the
			// slice starts where the body began in virtual time.
			mm.Sample(t.CPU().Name(), sim.ProfHandler, b.name, t.Priority(),
				t.Start()+before, t.Charged()-before)
		}
		b.stats.Invocations++
		invoked++
	}
	return invoked
}

// chargeKeyed charges one GuardEval per live keyed binding. Without a
// metrics sink it is one charge; with one, each guard is still sampled
// separately (under the index's owner), so profiles count guard
// evaluations exactly as they would for guard closures.
func (d *Dispatcher) chargeKeyed(t *sim.Task, kx *keyIndex) {
	if !t.Sim().MetricsEnabled() {
		t.Charge(sim.Time(kx.live) * d.costs.GuardEval)
		return
	}
	for i := 0; i < kx.live; i++ {
		t.ChargeProf(sim.ProfDispatch, kx.owner, d.costs.GuardEval)
	}
}
