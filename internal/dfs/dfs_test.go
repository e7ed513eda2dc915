package dfs

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"springfs/internal/blockdev"
	"springfs/internal/coherency"
	"springfs/internal/disklayer"
	"springfs/internal/naming"
	"springfs/internal/netsim"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// rig is a DFS deployment: a home node running SFS + the DFS server, plus
// remote nodes running DFS clients, joined by a simulated network.
type rig struct {
	t       *testing.T
	network *netsim.Network

	homeNode *spring.Node
	homeVMM  *vm.VMM
	sfs      *coherency.CohFS
	srv      *Server
}

type remoteNode struct {
	node   *spring.Node
	vmm    *vm.VMM
	client *Client
}

func newRig(t *testing.T) *rig {
	t.Helper()
	return newRigWithProfile(t, netsim.ProfileNone)
}

func newRigWithProfile(t *testing.T, profile netsim.Profile) *rig {
	t.Helper()
	network := netsim.New(profile)
	homeNode := spring.NewNode("home")
	t.Cleanup(homeNode.Stop)
	homeVMM := vm.New(spring.NewDomain(homeNode, "vmm"), "home-vmm")
	dev := blockdev.NewMem(4096, blockdev.ProfileNone)
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	diskDomain := spring.NewDomain(homeNode, "disk")
	disk, err := disklayer.Mount(dev, diskDomain, homeVMM, "disk0a")
	if err != nil {
		t.Fatal(err)
	}
	sfs := coherency.New(diskDomain, homeVMM, "sfs")
	if err := sfs.StackOn(disk); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(spring.NewDomain(homeNode, "dfs"), "dfs", naming.Root)
	if err := srv.StackOn(sfs); err != nil {
		t.Fatal(err)
	}
	l, err := network.Listen("home:dfs")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	return &rig{t: t, network: network, homeNode: homeNode, homeVMM: homeVMM, sfs: sfs, srv: srv}
}

func (r *rig) newRemote(name string) *remoteNode {
	r.t.Helper()
	node := spring.NewNode(name)
	r.t.Cleanup(node.Stop)
	vmm := vm.New(spring.NewDomain(node, "vmm"), name+"-vmm")
	conn, err := r.network.Dial("home:dfs")
	if err != nil {
		r.t.Fatal(err)
	}
	client := NewClient(conn, spring.NewDomain(node, "dfs-client"), name)
	r.t.Cleanup(func() { client.Close() })
	return &remoteNode{node: node, vmm: vmm, client: client}
}

func TestRemoteCreateWriteRead(t *testing.T) {
	r := newRig(t)
	remote := r.newRemote("remote1")
	f, err := remote.client.Create("hello")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	msg := []byte("over the wire")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("read = %q", got)
	}
	attrs, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if attrs.Length != int64(len(msg)) {
		t.Errorf("length = %d", attrs.Length)
	}
	// The file exists on the home node's SFS.
	local, err := r.sfs.Open("hello", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, len(msg))
	if _, err := local.ReadAt(got2, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, msg) {
		t.Errorf("local read = %q", got2)
	}
}

func TestRemoteDirectoryOps(t *testing.T) {
	r := newRig(t)
	remote := r.newRemote("remote1")
	if err := remote.client.Mkdir("sub"); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.client.Create("sub/inner"); err != nil {
		t.Fatal(err)
	}
	entries, err := remote.client.List("sub")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "inner" || entries[0].IsDir {
		t.Errorf("List = %+v", entries)
	}
	root, err := remote.client.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(root) != 1 || root[0].Name != "sub" || !root[0].IsDir {
		t.Errorf("root List = %+v", root)
	}
	if err := remote.client.Remove("sub/inner"); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.client.Open("sub/inner"); err == nil {
		t.Error("open after remove succeeded")
	}
}

func TestLookupErrors(t *testing.T) {
	r := newRig(t)
	remote := r.newRemote("remote1")
	_, err := remote.client.Open("missing")
	var re *ErrRemote
	if !errors.As(err, &re) {
		t.Errorf("error = %v, want ErrRemote", err)
	}
}

func TestFigure7BindForwarding(t *testing.T) {
	// Local binds to file_DFS are forwarded to the corresponding
	// file_SFS: local clients of file_DFS use the same cache object as
	// clients of file_SFS, and DFS is not involved in local page-in/
	// page-out requests.
	r := newRig(t)
	if _, err := r.srv.Create("local", naming.Root); err != nil {
		t.Fatal(err)
	}
	fileDFS, err := r.srv.Open("local", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	fileSFS, err := r.sfs.Open("local", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	mDFS, err := r.homeVMM.Map(fileDFS, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	mSFS, err := r.homeVMM.Map(fileSFS, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	if mDFS.Cache() != mSFS.Cache() {
		t.Error("bind through DFS did not forward to the SFS connection; caches differ")
	}
	// Writes through one view are immediately visible through the other —
	// same cached memory.
	if _, err := mDFS.WriteAt([]byte("shared page"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 11)
	if _, err := mSFS.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "shared page" {
		t.Errorf("via SFS mapping = %q", got)
	}
	// No remote traffic was involved.
	if r.srv.RemoteOps.Value() != 0 {
		t.Errorf("local mapping caused %d remote ops", r.srv.RemoteOps.Value())
	}
}

func TestRemoteMappingCoherentWithLocal(t *testing.T) {
	// A remote client maps the file; a local client writes; the remote
	// mapping must observe the new data (server revokes the remote cache
	// through a protocol callback). Then the remote writes and the local
	// view must observe it (SFS pulls the dirty data from the remote VMM
	// via DenyWrites/FlushBack over the wire).
	r := newRig(t)
	remote := r.newRemote("remote1")

	local, err := r.srv.Create("both", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.SetLength(vm.PageSize); err != nil {
		t.Fatal(err)
	}
	rf, err := remote.client.Open("both")
	if err != nil {
		t.Fatal(err)
	}
	rmap, err := remote.vmm.Map(rf, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the remote cache.
	buf := make([]byte, 16)
	if _, err := rmap.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}

	// Local write: must revoke the remote cache.
	if _, err := local.WriteAt([]byte("local update!!"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rmap.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf[:14]) != "local update!!" {
		t.Errorf("remote mapping read %q after local write", buf[:14])
	}
	if r.srv.Callbacks.Value() == 0 {
		t.Error("no callbacks were issued; remote cache was never revoked")
	}

	// Remote mapped write: local read must pull the dirty page over the
	// wire without an explicit sync.
	if _, err := rmap.WriteAt([]byte("remote update!"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 14)
	if _, err := local.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got) != "remote update!" {
		t.Errorf("local read %q after remote mapped write", got)
	}
}

func TestTwoRemoteClientsStayCoherent(t *testing.T) {
	r := newRig(t)
	remoteA := r.newRemote("remoteA")
	remoteB := r.newRemote("remoteB")

	fa, err := remoteA.client.Create("shared")
	if err != nil {
		t.Fatal(err)
	}
	if err := fa.SetLength(vm.PageSize); err != nil {
		t.Fatal(err)
	}
	fb, err := remoteB.client.Open("shared")
	if err != nil {
		t.Fatal(err)
	}
	mapA, err := remoteA.vmm.Map(fa, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	mapB, err := remoteB.vmm.Map(fb, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	// Ping-pong writes between the two remote nodes.
	for i := 0; i < 3; i++ {
		msg := []byte{byte('A'), byte('0' + i), 0, 0, 0, 0, 0, 0}
		if _, err := mapA.WriteAt(msg, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := mapB.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, msg) {
			t.Fatalf("round %d: B read %q after A wrote %q", i, buf, msg)
		}
		msg[0] = 'B'
		if _, err := mapB.WriteAt(msg, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := mapA.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, msg) {
			t.Fatalf("round %d: A read %q after B wrote %q", i, buf, msg)
		}
	}
}

func TestRemoteReadWritePathNoMapping(t *testing.T) {
	// Without CFS, plain read/write operations all go to the remote DFS.
	r := newRig(t)
	remote := r.newRemote("remote1")
	f, err := remote.client.Create("plain")
	if err != nil {
		t.Fatal(err)
	}
	before := remote.client.RemoteCalls.Value()
	for i := 0; i < 5; i++ {
		if _, err := f.WriteAt([]byte("x"), int64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadAt(make([]byte, 1), int64(i)); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	if got := remote.client.RemoteCalls.Value() - before; got != 10 {
		t.Errorf("10 ops crossed the wire %d times, want 10 (no local caching without CFS)", got)
	}
}

func TestClientDisconnectReleasesSessions(t *testing.T) {
	r := newRig(t)
	remote := r.newRemote("remote1")
	f, err := remote.client.Create("transient")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetLength(vm.PageSize); err != nil {
		t.Fatal(err)
	}
	m, err := remote.vmm.Map(f, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt([]byte("ephemeral"), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil { // persist before dropping the link
		t.Fatal(err)
	}
	remote.client.Close()

	// The home node can take write access without waiting on the dead
	// client: its holdings were released at teardown.
	local, err := r.sfs.Open("transient", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := local.WriteAt([]byte("after-drop"), 0)
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatalf("local write after client drop: %v", err)
	}
}

func TestNetworkPartitionFailsRemoteOps(t *testing.T) {
	r := newRig(t)
	remote := r.newRemote("remote1")
	f, err := remote.client.Create("cutoff")
	if err != nil {
		t.Fatal(err)
	}
	r.network.Partition(true)
	defer r.network.Partition(false)
	if _, err := f.WriteAt([]byte("x"), 0); err == nil {
		t.Error("write during partition succeeded")
	}
}

func TestConcurrentRemoteClients(t *testing.T) {
	r := newRig(t)
	const clients = 3
	remotes := make([]*remoteNode, clients)
	for i := range remotes {
		remotes[i] = r.newRemote("remote-conc")
	}
	if _, err := r.srv.Create("conc", naming.Root); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, rn := range remotes {
		wg.Add(1)
		go func(i int, rn *remoteNode) {
			defer wg.Done()
			f, err := rn.client.Open("conc")
			if err != nil {
				t.Errorf("client %d open: %v", i, err)
				return
			}
			buf := make([]byte, 32)
			for j := 0; j < 20; j++ {
				off := int64((i*20 + j) % 4)
				if j%2 == 0 {
					if _, err := f.WriteAt([]byte{byte(i)}, off*vm.PageSize); err != nil {
						t.Errorf("client %d write: %v", i, err)
						return
					}
				} else {
					if _, err := f.ReadAt(buf, off*vm.PageSize); err != nil && err != io.EOF {
						t.Errorf("client %d read: %v", i, err)
						return
					}
				}
			}
		}(i, rn)
	}
	wg.Wait()
}

func TestWireEncodingRoundTrip(t *testing.T) {
	var e encoder
	e.u8(7)
	e.u32(1 << 20)
	e.u64(1 << 40)
	e.i64(-12345)
	e.bytes([]byte("payload"))
	e.str("name")
	d := decoder{b: e.b}
	if d.u8() != 7 || d.u32() != 1<<20 || d.u64() != 1<<40 || d.i64() != -12345 {
		t.Error("scalar round trip failed")
	}
	if string(d.bytes()) != "payload" || d.str() != "name" {
		t.Error("bytes round trip failed")
	}
	if d.err != nil {
		t.Errorf("decoder error: %v", d.err)
	}
	// Truncated payload fails cleanly.
	d2 := decoder{b: e.b[:3]}
	d2.u32()
	if d2.err == nil {
		t.Error("truncated decode did not fail")
	}
}

func TestFrameSizeLimit(t *testing.T) {
	network := netsim.New(netsim.ProfileNone)
	l, err := network.Listen("s:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	closed := make(chan struct{})
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		newPeer(conn, func(Op, []byte) ([]byte, error) { return nil, nil },
			func(error) { close(closed) }).start()
	}()
	conn, err := network.Dial("s:1")
	if err != nil {
		t.Fatal(err)
	}
	// A bogus length prefix must make the server drop the connection, not
	// allocate gigabytes.
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	<-closed
}

func TestClientReconnectSeesDurableState(t *testing.T) {
	// A client writes and syncs, disconnects, and a new connection from
	// the same machine reopens the file by name and sees the data — the
	// close-to-open behaviour AFS-family protocols guarantee.
	r := newRig(t)
	remote := r.newRemote("remote1")
	f, err := remote.client.Create("durable")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("before disconnect"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	remote.client.Close()

	remote2 := r.newRemote("remote1-again")
	f2, err := remote2.client.Open("durable")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 17)
	if _, err := f2.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got) != "before disconnect" {
		t.Errorf("after reconnect = %q", got)
	}
}

func TestCoherencyUnderNetworkLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("latency test")
	}
	// The same ping-pong as TestTwoRemoteClientsStayCoherent but with a
	// real latency model, so revocation callbacks and grants genuinely
	// interleave in time.
	network := netsim.New(netsim.ProfileFast)
	homeNode := spring.NewNode("home")
	defer homeNode.Stop()
	homeVMM := vm.New(spring.NewDomain(homeNode, "vmm"), "home-vmm")
	dev := blockdev.NewMem(1024, blockdev.ProfileNone)
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	diskDomain := spring.NewDomain(homeNode, "disk")
	disk, err := disklayer.Mount(dev, diskDomain, homeVMM, "disk0a")
	if err != nil {
		t.Fatal(err)
	}
	sfs := coherency.New(diskDomain, homeVMM, "sfs")
	if err := sfs.StackOn(disk); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(spring.NewDomain(homeNode, "dfs"), "dfs", naming.Root)
	if err := srv.StackOn(sfs); err != nil {
		t.Fatal(err)
	}
	l, err := network.Listen("home:dfs")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	mk := func(name string) (*vm.VMM, *Client) {
		node := spring.NewNode(name)
		t.Cleanup(node.Stop)
		vmm := vm.New(spring.NewDomain(node, "vmm"), name)
		conn, err := network.Dial("home:dfs")
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(conn, spring.NewDomain(node, "dfs-client"), name)
		t.Cleanup(func() { c.Close() })
		return vmm, c
	}
	vmmA, clientA := mk("lat-A")
	vmmB, clientB := mk("lat-B")
	fa, err := clientA.Create("latency")
	if err != nil {
		t.Fatal(err)
	}
	if err := fa.SetLength(vm.PageSize); err != nil {
		t.Fatal(err)
	}
	fb, err := clientB.Open("latency")
	if err != nil {
		t.Fatal(err)
	}
	mapA, err := vmmA.Map(fa, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	mapB, err := vmmB.Map(fb, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	for i := 0; i < 5; i++ {
		msg := []byte{byte(i), byte(i + 1), byte(i + 2), byte(i + 3)}
		if _, err := mapA.WriteAt(msg, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := mapB.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, msg) {
			t.Fatalf("round %d: B sees %v after A wrote %v", i, buf, msg)
		}
	}
}
