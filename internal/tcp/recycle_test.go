package tcp_test

import (
	"bytes"
	"testing"

	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
)

// exchange is one connection's request and response.
type exchange struct {
	req, resp           []byte
	gotReq, gotResp     []byte
	clientTook, srvTook int // free-list buffers taken by each end's first Send
}

// TestRecycledBuffersDeliverExactStreams runs two connections back to back
// between the same two managers. The first one's send rings and receive
// gather buffers return to the free lists when its ends enter TIME-WAIT;
// the second takes them again and carries shorter, different streams. Both streams must arrive byte-exact: a
// recycled buffer never exposes the bytes it held before.
func TestRecycledBuffersDeliverExactStreams(t *testing.T) {
	spec := func(name string) plexus.HostSpec {
		return plexus.HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
	}
	n, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(), spec("client"), spec("server"))
	if err != nil {
		t.Fatal(err)
	}
	var cur *exchange
	_, err = server.ListenTCP(80, plexus.TCPAppOptions{
		OnRecv: func(tk *sim.Task, c *plexus.TCPApp, data []byte) {
			cur.gotReq = append(cur.gotReq, data...)
			if len(cur.gotReq) < len(cur.req) {
				return
			}
			free := server.TCP.FreeBufs()
			_ = c.Send(tk, cur.resp)
			cur.srvTook = free - server.TCP.FreeBufs()
			c.Close(tk)
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(x *exchange) {
		cur = x
		client.Spawn("connect", func(tk *sim.Task) {
			_, err := client.ConnectTCP(tk, server.Addr(), 80, plexus.TCPAppOptions{
				OnEstablished: func(tk *sim.Task, c *plexus.TCPApp) {
					free := client.TCP.FreeBufs()
					_ = c.Send(tk, x.req)
					x.clientTook = free - client.TCP.FreeBufs()
				},
				OnRecv:    func(tk *sim.Task, c *plexus.TCPApp, data []byte) { x.gotResp = append(x.gotResp, data...) },
				OnPeerFin: func(tk *sim.Task, c *plexus.TCPApp) { c.Close(tk) },
			})
			if err != nil {
				t.Error(err)
			}
		})
		n.Sim.RunUntil(n.Sim.Now() + 5*sim.Second)
		if !bytes.Equal(x.gotReq, x.req) || !bytes.Equal(x.gotResp, x.resp) {
			t.Fatalf("request %d/%d bytes exact %v, response %d/%d bytes exact %v",
				len(x.gotReq), len(x.req), bytes.Equal(x.gotReq, x.req),
				len(x.gotResp), len(x.resp), bytes.Equal(x.gotResp, x.resp))
		}
	}
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	run(&exchange{req: fill(1400, 0xa1), resp: fill(1460, 0xb1)})
	if client.TCP.FreeBufs() == 0 || server.TCP.FreeBufs() == 0 {
		t.Fatalf("free lists after the first connection: client %d, server %d buffers", client.TCP.FreeBufs(), server.TCP.FreeBufs())
	}
	second := &exchange{req: []byte("GET /second HTTP/1.0\r\n\r\n"), resp: fill(700, 0xc2)}
	run(second)
	if second.clientTook != 1 || second.srvTook != 1 {
		t.Fatalf("first Sends took %d (client) and %d (server) recycled buffers, want 1 each", second.clientTook, second.srvTook)
	}
}
