package tcp_test

// Demultiplexing cost pins: connection lookup on TCP.PacketRecv must not
// grow with the number of TCBs in host time, and must not allocate.

import (
	"encoding/binary"
	"fmt"
	"testing"

	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/tcp"
	"plexus/internal/view"
)

const demuxPort = 9000

// demuxRig is two SPIN hosts with k established connections from the
// client to the server's demuxPort, so each host holds k TCBs.
func demuxRig(tb testing.TB, k int) (*plexus.Network, *plexus.Stack, *plexus.Stack, []*plexus.TCPApp) {
	tb.Helper()
	spec := func(name string) plexus.HostSpec {
		return plexus.HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
	}
	n, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(), spec("client"), spec("server"))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := server.ListenTCP(demuxPort, plexus.TCPAppOptions{}, nil); err != nil {
		tb.Fatal(err)
	}
	apps := make([]*plexus.TCPApp, k)
	for i := range apps {
		client.Spawn("connect", func(t *sim.Task) {
			apps[i], err = client.ConnectTCP(t, server.Addr(), demuxPort, plexus.TCPAppOptions{})
		})
		n.Sim.Run()
		if err != nil {
			tb.Fatal(err)
		}
	}
	if got := server.TCP.NumConns(); got != k {
		tb.Fatalf("server holds %d TCBs, want %d", got, k)
	}
	return n, client, server, apps
}

// strayRaise returns a raise of one segment from the client to a server
// port nobody serves: it crosses the whole demux path — key extraction, the
// index lookup, the per-TCB guard charge and the listener's guard — and no
// handler body runs, so the call measures demultiplexing alone.
func strayRaise(tb testing.TB, client, server *plexus.Stack) func(task *sim.Task) {
	seg := make([]byte, view.IPv4MinHdrLen+view.TCPMinHdrLen)
	seg[0] = 0x45
	seg[3] = byte(len(seg))
	seg[9] = view.IPProtoTCP
	src, dst := client.Addr(), server.Addr()
	copy(seg[12:16], src[:])
	copy(seg[16:20], dst[:])
	binary.BigEndian.PutUint16(seg[20:], 40000)
	binary.BigEndian.PutUint16(seg[22:], demuxPort+1)
	seg[32] = 5 << 4
	pkt := server.Host.Pool.FromBytes(seg, 64)
	return func(task *sim.Task) {
		if got := server.Host.Disp.Raise(task, tcp.RecvEvent, pkt); got != 0 {
			tb.Fatalf("segment for an unserved port reached %d handlers", got)
		}
	}
}

// BenchmarkTCPDemux demultiplexes one segment on a Manager holding k TCBs.
func BenchmarkTCPDemux(b *testing.B) {
	for _, k := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			n, client, server, _ := demuxRig(b, k)
			raise := strayRaise(b, client, server)
			server.Spawn("demux", func(task *sim.Task) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					raise(task)
				}
			})
			n.Sim.Run()
		})
	}
}

// TestTCPDemuxSteadyStateAllocs pins the demux path at zero allocations with
// 1024 TCBs installed.
func TestTCPDemuxSteadyStateAllocs(t *testing.T) {
	n, client, server, _ := demuxRig(t, 1024)
	raise := strayRaise(t, client, server)
	ran := false
	server.Spawn("demux", func(task *sim.Task) {
		ran = true
		if avg := testing.AllocsPerRun(100, func() { raise(task) }); avg != 0 {
			t.Errorf("demux with 1024 TCBs allocates %.2f/segment, want 0", avg)
		}
	})
	n.Sim.Run()
	if !ran {
		t.Fatal("demux task never ran")
	}
}
