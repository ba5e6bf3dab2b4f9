package plexus

import (
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/tcp"
	"plexus/internal/view"
)

// TCPAppOptions configure application-level connections.
type TCPAppOptions struct {
	// OnRecv delivers stream bytes in order. The slice is borrowed: valid
	// only during the call; copy to retain.
	OnRecv func(t *sim.Task, conn *TCPApp, data []byte)
	// OnEstablished fires when the handshake completes.
	OnEstablished func(t *sim.Task, conn *TCPApp)
	// OnPeerFin fires at the end of the peer's stream.
	OnPeerFin func(t *sim.Task, conn *TCPApp)
	// OnClose fires at full termination.
	OnClose func(conn *TCPApp, err error)
	// AppRecvCost is charged per delivered chunk.
	AppRecvCost sim.Time
	// CC overrides the host's congestion-control algorithm for this
	// connection ("" = the host default).
	CC string
	// NoSack withholds SACK from this connection's handshake, forcing
	// cumulative-ACK-only loss recovery.
	NoSack bool
}

// TCPApp is an application-level TCP connection with personality costs.
type TCPApp struct {
	st   *Stack
	conn *tcp.Conn
	opts TCPAppOptions
	data any
}

// The tcp.ConnOptions callbacks below are shared by every TCPApp: each finds
// its TCPApp through the connection's App value, so opening a connection
// mints no closures, and the user callbacks are read from app.opts at call
// time, so SetOptions can replace them after accept (the user-level splice
// forwarder does this).

func appOf(c *tcp.Conn) *TCPApp {
	app, _ := c.App().(*TCPApp)
	return app
}

func appRecv(t *sim.Task, c *tcp.Conn, data []byte) {
	if app := appOf(c); app != nil {
		app.deliver(t, data)
	}
}

func appEstablished(t *sim.Task, c *tcp.Conn) {
	if app := appOf(c); app != nil && app.opts.OnEstablished != nil {
		app.inAppContext(t, callEstablished)
	}
}

func appPeerFin(t *sim.Task, c *tcp.Conn) {
	if app := appOf(c); app != nil && app.opts.OnPeerFin != nil {
		app.inAppContext(t, callPeerFin)
	}
}

func appClose(c *tcp.Conn, err error) {
	if app := appOf(c); app != nil && app.opts.OnClose != nil {
		app.opts.OnClose(app, err)
	}
}

func callEstablished(t *sim.Task, app *TCPApp) { app.opts.OnEstablished(t, app) }

func callPeerFin(t *sim.Task, app *TCPApp) { app.opts.OnPeerFin(t, app) }

// ConnectTCP performs an active open to dst:dstPort.
func (st *Stack) ConnectTCP(t *sim.Task, dst view.IP4, dstPort uint16, opts TCPAppOptions) (*TCPApp, error) {
	app := &TCPApp{st: st, opts: opts}
	if st.Host.Personality == osmodel.Monolithic {
		t.Charge(st.Host.Costs.Syscall + st.Host.Costs.SocketLayer)
	}
	c, err := st.TCP.Connect(t, dst, dstPort, tcp.ConnOptions{
		Ephemeral:     true,
		CC:            opts.CC,
		NoSack:        opts.NoSack,
		OnRecv:        appRecv,
		OnEstablished: appEstablished,
		OnPeerFin:     appPeerFin,
		OnClose:       appClose,
	})
	if err != nil {
		return nil, err
	}
	// No callback can fire before the SYN is answered, so attaching the
	// app after Connect returns is in time.
	c.SetApp(app)
	app.conn = c
	return app, nil
}

// ListenTCP accepts connections on port; accept receives the ready TCPApp
// after each handshake completes. Every accepted connection gets its own
// TCPApp wrapper sharing opts.
func (st *Stack) ListenTCP(port uint16, opts TCPAppOptions, accept func(t *sim.Task, conn *TCPApp)) (*tcp.Listener, error) {
	return st.TCP.Listen(port, tcp.ConnOptions{
		Ephemeral: true,
		OnRecv:    appRecv,
		OnEstablished: func(t *sim.Task, c *tcp.Conn) {
			app := &TCPApp{st: st, conn: c, opts: opts}
			c.SetApp(app)
			if accept != nil {
				app.inAppContext(t, accept)
			}
			if app.opts.OnEstablished != nil {
				app.inAppContext(t, callEstablished)
			}
		},
		OnPeerFin: appPeerFin,
		OnClose:   appClose,
	}, nil)
}

// Options returns the connection's application-level options.
func (app *TCPApp) Options() TCPAppOptions { return app.opts }

// SetOptions replaces the connection's application-level callbacks; takes
// effect for subsequent deliveries.
func (app *TCPApp) SetOptions(o TCPAppOptions) { app.opts = o }

// Data returns the value SetData attached to the connection (nil if none).
func (app *TCPApp) Data() any { return app.data }

// SetData attaches an opaque value to the connection for its callbacks, so
// one set of callback functions can serve many connections, each finding
// its own state through Data, instead of a closure per connection.
func (app *TCPApp) SetData(v any) { app.data = v }

// deliver applies receive-side personality structure, then the app callback.
// On SPIN the callback runs inline and borrows data; on Monolithic the bytes
// are copied (the modeled copyout) for the woken user task.
func (app *TCPApp) deliver(t *sim.Task, data []byte) {
	st := app.st
	if st.Host.Personality == osmodel.SPIN {
		app.recv(t, data)
		return
	}
	costs := st.Host.Costs
	t.Charge(costs.SocketLayer + costs.Wakeup)
	data = append([]byte(nil), data...)
	st.Host.CPU.SubmitAt(t.Now(), sim.PrioUser, st.taskLabels().recv, func(ut *sim.Task) {
		ut.Charge(costs.CtxSwitch + costs.Syscall)
		ut.ChargeBytes(len(data), costs.CopyPerByte)
		app.recv(ut, data)
	})
}

// recv charges the application's per-chunk cost and runs its callback.
func (app *TCPApp) recv(t *sim.Task, data []byte) {
	if app.opts.AppRecvCost > 0 {
		t.Charge(app.opts.AppRecvCost)
	}
	if app.opts.OnRecv != nil {
		app.opts.OnRecv(t, app, data)
	}
}

// inAppContext runs a control callback with personality structure: inline on
// SPIN, as a woken user process on Monolithic.
func (app *TCPApp) inAppContext(t *sim.Task, fn func(t *sim.Task, app *TCPApp)) {
	st := app.st
	if st.Host.Personality == osmodel.SPIN {
		fn(t, app)
		return
	}
	costs := st.Host.Costs
	t.Charge(costs.Wakeup)
	st.Host.CPU.SubmitAt(t.Now(), sim.PrioUser, st.taskLabels().ctl, func(ut *sim.Task) {
		ut.Charge(costs.CtxSwitch)
		fn(ut, app)
	})
}

// Send writes data to the stream, applying send-side personality costs.
func (app *TCPApp) Send(t *sim.Task, data []byte) error {
	st := app.st
	if st.Host.Personality == osmodel.Monolithic {
		costs := st.Host.Costs
		t.Charge(costs.Syscall + costs.SocketLayer)
		t.ChargeBytes(len(data), costs.CopyPerByte)
	}
	return app.conn.Send(t, data)
}

// Close ends the send side (FIN after buffered data).
func (app *TCPApp) Close(t *sim.Task) {
	if app.st.Host.Personality == osmodel.Monolithic {
		t.Charge(app.st.Host.Costs.Syscall)
	}
	app.conn.Close(t)
}

// Conn exposes the underlying transport connection.
func (app *TCPApp) Conn() *tcp.Conn { return app.conn }

// State returns the transport state.
func (app *TCPApp) State() tcp.State { return app.conn.State() }
