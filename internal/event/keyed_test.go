package event

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"plexus/internal/mbuf"
	"plexus/internal/sim"
)

// keyOf is the test events' key extractor: the packet's first byte, except
// 0xFF, which carries no key.
func keyOf(m *mbuf.Mbuf) (uint64, bool) {
	b := m.Bytes()
	if len(b) == 0 || b[0] == 0xFF {
		return 0, false
	}
	return uint64(b[0]), true
}

// keyGuard is the guard closure a keyed binding on k stands for.
func keyGuard(k uint64) Guard {
	return func(_ *sim.Task, m *mbuf.Mbuf) bool {
		got, ok := keyOf(m)
		return ok && got == k
	}
}

func keyedDispatcher() *Dispatcher {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("E", Options{Key: keyOf})
	return d
}

func mustInstallKeyed(t *testing.T, d *Dispatcher, k uint64, h Handler) *Binding {
	t.Helper()
	b, err := d.InstallKeyed("E", k, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// logger returns a handler that appends its name to *log.
func logger(log *[]string, name string) Handler {
	return Proc(name, func(*sim.Task, *mbuf.Mbuf) { *log = append(*log, name) })
}

func TestInstallKeyedNeedsKeyExtractor(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("E", Options{})
	if _, err := d.InstallKeyed("E", 1, Proc("h", func(*sim.Task, *mbuf.Mbuf) {}), 0); !errors.Is(err, ErrNotKeyed) {
		t.Fatalf("err = %v, want ErrNotKeyed", err)
	}
	if _, err := d.InstallKeyed("Nope", 1, Proc("h", func(*sim.Task, *mbuf.Mbuf) {}), 0); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("err = %v, want ErrUnknownEvent", err)
	}
}

// Keyed matches are spliced into the unkeyed bindings at their install
// positions, and the positions survive uninstalls on either side.
func TestKeyedDispatchKeepsInstallOrder(t *testing.T) {
	d := keyedDispatcher()
	var log []string
	accept := func(*sim.Task, *mbuf.Mbuf) bool { return true }
	u1 := mustInstall(t, d, "E", nil, logger(&log, "u1"))
	mustInstallKeyed(t, d, 9, logger(&log, "k1"))
	g := mustInstall(t, d, "E", accept, logger(&log, "g"))
	mustInstallKeyed(t, d, 5, logger(&log, "other"))
	k2 := mustInstallKeyed(t, d, 9, logger(&log, "k2"))
	mustInstall(t, d, "E", nil, logger(&log, "u2"))
	m := pkt(t, 9)
	raise := func(want string) {
		t.Helper()
		log = log[:0]
		run(t, func(task *sim.Task) { d.Raise(task, "E", m) })
		if got := strings.Join(log, " "); got != want {
			t.Fatalf("dispatch order %s, want %s", got, want)
		}
	}
	raise("u1 k1 g k2 u2")
	d.Uninstall(g)
	mustInstallKeyed(t, d, 9, logger(&log, "k3"))
	raise("u1 k1 k2 u2 k3")
	d.Uninstall(u1)
	d.Uninstall(k2)
	mustInstall(t, d, "E", accept, logger(&log, "g2"))
	raise("k1 u2 k3 g2")
}

// A keyed binding uninstalled by an earlier handler does not fire later in
// the same raise, whichever kind of binding removed it.
func TestKeyedUninstallDuringRaiseSuppressesLaterHandler(t *testing.T) {
	d := keyedDispatcher()
	var victims [2]*Binding
	var ran []string
	mustInstallKeyed(t, d, 9, Proc("keyed-assassin", func(*sim.Task, *mbuf.Mbuf) { d.Uninstall(victims[0]) }))
	victims[0] = mustInstallKeyed(t, d, 9, logger(&ran, "victim0"))
	mustInstall(t, d, "E", nil, Proc("assassin", func(*sim.Task, *mbuf.Mbuf) { d.Uninstall(victims[1]) }))
	victims[1] = mustInstallKeyed(t, d, 9, logger(&ran, "victim1"))
	m := pkt(t, 9)
	var invoked int
	run(t, func(task *sim.Task) { invoked = d.Raise(task, "E", m) })
	if len(ran) != 0 {
		t.Fatalf("%v fired after being uninstalled in the same raise", ran)
	}
	if invoked != 2 {
		t.Fatalf("invoked = %d, want 2", invoked)
	}
	if n := d.HandlerCount("E"); n != 2 {
		t.Fatalf("HandlerCount = %d after uninstalls, want 2", n)
	}
}

// A panicking keyed handler is contained, quarantined and dropped from the
// index; its key stays usable for a new binding.
func TestKeyedPanicQuarantinedAndUnindexed(t *testing.T) {
	d := keyedDispatcher()
	d.SetQuarantine(QuarantinePolicy{Threshold: 1})
	var ran []string
	bad := mustInstallKeyed(t, d, 9, Proc("bad", func(*sim.Task, *mbuf.Mbuf) { panic("boom") }))
	mustInstallKeyed(t, d, 9, logger(&ran, "good"))
	m := pkt(t, 9)
	run(t, func(task *sim.Task) { d.Raise(task, "E", m) })
	if !bad.Quarantined() || bad.Stats().Panics != 1 {
		t.Fatalf("bad binding: quarantined=%v stats=%+v", bad.Quarantined(), bad.Stats())
	}
	if n := d.HandlerCount("E"); n != 1 {
		t.Fatalf("HandlerCount = %d after quarantine, want 1", n)
	}
	mustInstallKeyed(t, d, 9, logger(&ran, "again"))
	var invoked int
	run(t, func(task *sim.Task) { invoked = d.Raise(task, "E", m) })
	if invoked != 2 || strings.Join(ran, " ") != "good good again" {
		t.Fatalf("invoked %d, ran %v; want the quarantined binding gone from the index", invoked, ran)
	}
	if d.Uninstall(bad) {
		t.Fatal("uninstalling a quarantined keyed binding reported a detach")
	}
	if h := d.Health(); h.Quarantined != 1 || h.Panics != 1 || h.Bindings != 2 {
		t.Fatalf("health = %+v", h)
	}
}

func TestKeyedBindingsCounted(t *testing.T) {
	d := keyedDispatcher()
	ref := d.Ref("E")
	mustInstall(t, d, "E", nil, Proc("u", func(*sim.Task, *mbuf.Mbuf) {}))
	a := mustInstallKeyed(t, d, 9, Proc("a", func(*sim.Task, *mbuf.Mbuf) {}))
	mustInstallKeyed(t, d, 9, Proc("b", func(*sim.Task, *mbuf.Mbuf) {}))
	mustInstallKeyed(t, d, 4, Proc("c", func(*sim.Task, *mbuf.Mbuf) {}))
	if d.HandlerCount("E") != 4 || ref.HandlerCount() != 4 {
		t.Fatalf("HandlerCount = %d, Ref.HandlerCount = %d, want 4", d.HandlerCount("E"), ref.HandlerCount())
	}
	m := pkt(t, 9)
	run(t, func(task *sim.Task) { ref.Raise(task, m) })
	if h := d.Health(); h.Bindings != 4 || h.Invocations != 3 {
		t.Fatalf("health = %+v, want 4 bindings and 3 invocations", h)
	}
	d.Uninstall(a)
	if d.HandlerCount("E") != 3 || ref.HandlerCount() != 3 || d.Health().Bindings != 3 {
		t.Fatal("uninstalled keyed binding still counted")
	}
}

// countSink counts the dispatcher's profiler samples.
type countSink struct{ dispatch int }

func (s *countSink) Hop(uint64, sim.Time, string, string, string, int) {}
func (s *countSink) QueueDepth(string, int)                            {}
func (s *countSink) Sample(_ string, kind sim.ProfKind, _ string, _ sim.Priority, _, _ sim.Time) {
	if kind == sim.ProfDispatch {
		s.dispatch++
	}
}

// twinRun is what one run of twinScenario observed.
type twinRun struct {
	log     []string
	invoked []int
	charged []sim.Time
	stats   []BindingStats
	samples int
}

// twinScenario drives one sequence of installs, uninstalls and raises with
// every exact-match binding installed either keyed or as its equivalent
// guard closure. The two runs must be indistinguishable.
func twinScenario(t *testing.T, keyed, metrics bool) twinRun {
	t.Helper()
	d := NewDispatcher(DefaultCosts())
	if keyed {
		d.MustDeclare("E", Options{Key: keyOf})
	} else {
		d.MustDeclare("E", Options{})
	}
	var r twinRun
	var bs []*Binding
	exact := func(k uint64, h Handler) *Binding {
		var b *Binding
		var err error
		if keyed {
			b, err = d.InstallKeyed("E", k, h, 0)
		} else {
			b, err = d.Install("E", keyGuard(k), h, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
		return b
	}
	plain := func(g Guard, h Handler) {
		bs = append(bs, mustInstall(t, d, "E", g, h))
	}
	var late *Binding
	plain(nil, logger(&r.log, "u"))
	exact(9, logger(&r.log, "a"))
	plain(func(*sim.Task, *mbuf.Mbuf) bool { return true }, logger(&r.log, "g"))
	exact(5, logger(&r.log, "b"))
	exact(9, Proc("c", func(*sim.Task, *mbuf.Mbuf) {
		r.log = append(r.log, "c")
		d.Uninstall(late) // late matched this raise but must not run
	}))
	late = exact(9, logger(&r.log, "late"))
	s := sim.New(1)
	sink := &countSink{}
	if metrics {
		s.SetMetrics(sink)
	}
	cpu := sim.NewCPU(s, "cpu0")
	for i, key := range []byte{9, 5, 0xFF, 7, 9, 3, 5, 7} {
		switch i {
		case 3:
			exact(7, logger(&r.log, "d"))
		case 5:
			d.Uninstall(bs[3]) // b, keyed 5
		}
		m := mbuf.DefaultPool().FromBytes([]byte{key, 0}, 16)
		cpu.Submit(sim.PrioKernel, "raise", func(task *sim.Task) {
			r.invoked = append(r.invoked, d.Raise(task, "E", m))
			r.charged = append(r.charged, task.Charged())
		})
		s.Run()
		m.Free()
	}
	for _, b := range bs {
		r.stats = append(r.stats, b.Stats())
	}
	r.samples = sink.dispatch
	return r
}

// Keyed bindings are indistinguishable from their guard closures in dispatch
// order, simulated charge, per-binding stats (GuardRejects included) and
// profiler sample counts.
func TestKeyedDispatchMatchesGuardClosures(t *testing.T) {
	for _, metrics := range []bool{false, true} {
		closures := twinScenario(t, false, metrics)
		keyed := twinScenario(t, true, metrics)
		if !reflect.DeepEqual(closures, keyed) {
			t.Fatalf("metrics=%v:\nguard closures %+v\nkeyed          %+v", metrics, closures, keyed)
		}
		if closures.stats[1].GuardRejects == 0 || closures.charged[0] == 0 || metrics && closures.samples == 0 {
			t.Fatalf("scenario exercises nothing: %+v", closures)
		}
	}
}

// TestKeyedRaiseSteadyStateAllocs pins keyed dispatch at zero allocations,
// hit or miss, with a thousand keyed bindings installed.
func TestKeyedRaiseSteadyStateAllocs(t *testing.T) {
	d := keyedDispatcher()
	for k := uint64(0); k < 1024; k++ {
		mustInstallKeyed(t, d, k%200, Proc("h", func(*sim.Task, *mbuf.Mbuf) {}))
	}
	mustInstall(t, d, "E", func(*sim.Task, *mbuf.Mbuf) bool { return false }, Proc("g", func(*sim.Task, *mbuf.Mbuf) {}))
	hit, miss := pkt(t, 9), pkt(t, 0xFF)
	run(t, func(task *sim.Task) {
		d.Raise(task, "E", hit)
		avg := testing.AllocsPerRun(100, func() {
			if n := d.Raise(task, "E", hit); n != 6 {
				t.Fatalf("Raise invoked %d handlers, want 6", n)
			}
			if n := d.Raise(task, "E", miss); n != 0 {
				t.Fatalf("Raise invoked %d handlers, want 0", n)
			}
		})
		if avg != 0 {
			t.Errorf("warm keyed Raise allocates %.2f/call, want 0", avg)
		}
	})
}

// Keyed state hangs off one pointer, so unkeyed bindings and events stay in
// the size classes they had before keyed dispatch existed.
func TestDispatchStateSizeClasses(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size classes checked on 64-bit platforms")
	}
	if n := unsafe.Sizeof(Binding{}); n > 112 {
		t.Errorf("Binding is %d bytes, want ≤ 112", n)
	}
	if n := unsafe.Sizeof(eventState{}); n > 64 {
		t.Errorf("eventState is %d bytes, want ≤ 64", n)
	}
}
